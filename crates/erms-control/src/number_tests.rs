//! Oracle sweeps of the number writer and reader: the writer against
//! `f64`'s `Display`, the reader against `str::parse::<f64>`, over the
//! families of values where a shortest-digit writer or a fast-path reader
//! goes wrong if it goes wrong anywhere. The short form runs with the
//! unit tests; the long form is the release-build run CI makes:
//! `cargo test -p erms-control --release -- --ignored number_sweep`.

use crate::json::{Json, Parser};

/// A splitmix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reader's value for `text`, which must be one whole number.
fn read(text: &str) -> f64 {
    let mut p = Parser::new(text);
    let n = p.number().unwrap_or_else(|e| panic!("{text}: {e}"));
    p.finish().unwrap_or_else(|e| panic!("{text}: {e}"));
    n
}

/// The reader agrees bit for bit with `str::parse` on `text`.
fn check_read(text: &str) {
    let expected: f64 = text.parse().unwrap();
    assert_eq!(read(text).to_bits(), expected.to_bits(), "read {text}");
}

/// 2^53 and 10^19: the mantissas above the first and below the second are
/// the reader's product path.
const EXACT: u64 = 1 << 53;
const TEN_19: u64 = 10_000_000_000_000_000_000;

/// `mantissa × 10^-fraction` written out: its digits with the point
/// `fraction` from the end, `0.` and zeros in front where it has fewer.
fn with_fraction(mantissa: u64, fraction: usize) -> String {
    let digits = mantissa.to_string();
    if fraction == 0 {
        digits
    } else if fraction < digits.len() {
        let (whole, part) = digits.split_at(digits.len() - fraction);
        format!("{whole}.{part}")
    } else {
        format!("0.{}{digits}", "0".repeat(fraction - digits.len()))
    }
}

/// Counts the values a sweep checked.
#[derive(Default)]
struct Checked {
    written: u64,
}

impl Checked {
    /// The writer prints `x` as `Display` does, the reader takes that text
    /// back to `x`'s bits, and it reads `x` at `precision` fixed digits
    /// and in exponent form as `str::parse` does.
    fn value(&mut self, x: f64, precision: usize) {
        if !x.is_finite() {
            return;
        }
        let text = Json::Num(x).render();
        assert_eq!(text, format!("{x}"), "bits {:#018x}", x.to_bits());
        assert_eq!(read(&text).to_bits(), x.to_bits(), "round trip of {text}");
        check_read(&format!("{x:.precision$}"));
        check_read(&format!("{x:e}"));
        self.written += 1;
    }
}

/// Runs every family with `per_family` values each (a few families are
/// exhaustive and run whole whatever the count).
fn sweep(per_family: u64, seed: u64) -> Checked {
    let mut rng = Stream(seed);
    let mut checked = Checked::default();
    let mut precision = 0;
    let mut value = |checked: &mut Checked, x: f64| {
        precision = (precision + 1) % 21;
        checked.value(x, precision);
        checked.value(-x, precision);
    };

    // Random bit patterns.
    for _ in 0..per_family {
        value(&mut checked, f64::from_bits(rng.next()));
    }
    // Every power of two, and subnormals: the first few thousand, the
    // last ones below the normal range, and random ones.
    for k in -1074..=1023 {
        value(&mut checked, 2f64.powi(k));
    }
    for bits in (1..2_000).chain((1u64 << 52) - 2_000..1 << 52) {
        value(&mut checked, f64::from_bits(bits));
    }
    for _ in 0..per_family / 4 {
        value(&mut checked, f64::from_bits(rng.below(1 << 52)));
    }
    // Exact ties at 2^47 … 2^53: an integer plus a few binary fraction
    // bits, whose shortest digits are often equally near two candidates.
    for _ in 0..per_family {
        let magnitude = 47 + rng.below(6);
        let whole = (1 << magnitude) | rng.below(1 << magnitude);
        let room = 53 - magnitude as i32 - 1;
        let fraction_bits = 1 + rng.below(room.max(1) as u64) as i32;
        let fraction = rng.below(1 << fraction_bits) as f64 / 2f64.powi(fraction_bits);
        value(&mut checked, whole as f64 + fraction);
    }
    // Simulated times: k/2^m and k/1000 over the range a DES produces.
    for _ in 0..per_family {
        let k = rng.below(1 << 40);
        value(&mut checked, k as f64 / 2f64.powi(rng.below(31) as i32));
        value(&mut checked, rng.below(1 << 30) as f64 / 1000.0);
        value(
            &mut checked,
            (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6,
        );
    }
    // Both sides of 2^53, 10^15, 10^16 and 10^17, ulp by ulp.
    let near = per_family.clamp(64, 100_000) / 4;
    for edge in [9_007_199_254_740_992.0f64, 1e15, 1e16, 1e17] {
        for step in 0..near {
            value(&mut checked, f64::from_bits(edge.to_bits() + step));
            value(&mut checked, f64::from_bits(edge.to_bits() - step));
        }
    }
    // Long mantissas the fast path must hand on: 19 digits, and 20 to 40,
    // with the point anywhere; and the mantissas either side of 2^53.
    for _ in 0..per_family {
        let digits = if rng.below(2) == 0 {
            19
        } else {
            20 + rng.below(21) as usize
        };
        let mut text: String = (0..digits)
            .map(|i| {
                let low = u64::from(i == 0);
                char::from(b'0' + (low + rng.below(10 - low)) as u8)
            })
            .collect();
        let point = rng.below(digits as u64 + 1) as usize;
        if point < digits {
            text.insert(point.max(1), '.');
        }
        check_read(&text);
    }
    // Mantissas in (2^53, 10^19) with 1 to 19 fraction digits: the product
    // path, and past 19 digits in all (leading zeros) `from_str` again.
    for _ in 0..per_family {
        let mantissa = EXACT + 1 + rng.below(TEN_19 - EXACT - 1);
        check_read(&with_fraction(mantissa, 1 + rng.below(19) as usize));
    }
    // Decimals exactly halfway between two adjacent doubles, and one unit
    // in their last digit either side: `m × 2^e` and `(m + 1) × 2^e` for a
    // 53-bit `m`, whose midpoint has `1 - e` fraction digits when `e` ≤ 0.
    for _ in 0..per_family {
        let m = (1 << 52) | rng.below(1 << 52);
        let e = rng.below(15) as i32 - 4;
        let odd = u128::from(2 * m + 1);
        let (mantissa, fraction) = if e >= 1 {
            (odd << (e - 1), 0)
        } else {
            (odd * 5u128.pow((1 - e) as u32), (1 - e) as usize)
        };
        for mantissa in [mantissa - 1, mantissa, mantissa + 1] {
            if let Ok(mantissa) = u64::try_from(mantissa) {
                check_read(&with_fraction(mantissa, fraction));
            }
        }
    }
    for mantissa in 9_007_199_254_740_990u64..9_007_199_254_740_995 {
        let text = mantissa.to_string();
        for point in 1..text.len() {
            check_read(&format!("{}.{}", &text[..point], &text[point..]));
        }
        check_read(&text);
    }
    checked
}

/// About 10^5 values, in the unit-test build.
#[test]
fn number_sweep_short() {
    let checked = sweep(6_500, 0x5EED);
    assert!(checked.written >= 100_000, "{} written", checked.written);
}

/// More than 10^7 values, each written and read back four ways.
#[test]
#[ignore = "10^7 values; run in release"]
fn number_sweep() {
    let checked = sweep(1_000_000, 0xF10A7);
    assert!(checked.written >= 10_000_000, "{} written", checked.written);
}

/// Nanoseconds per value of `a` and of `b`, timed in alternation: the
/// best round of each, and the median over rounds of their ratio.
fn paired_ns(
    rounds: usize,
    values: usize,
    mut a: impl FnMut() -> usize,
    mut b: impl FnMut() -> usize,
) -> (f64, f64, f64) {
    let time = |work: &mut dyn FnMut() -> usize| {
        let started = std::time::Instant::now();
        assert!(work() > 0);
        started.elapsed().as_secs_f64() * 1e9 / values as f64
    };
    let mut rows: Vec<(f64, f64)> = (0..rounds).map(|_| (time(&mut a), time(&mut b))).collect();
    let best = |pick: fn(&(f64, f64)) -> f64| rows.iter().map(pick).fold(f64::INFINITY, f64::min);
    let (best_a, best_b) = (best(|r| r.0), best(|r| r.1));
    rows.sort_by(|x, y| (x.0 / x.1).total_cmp(&(y.0 / y.1)));
    let (ma, mb) = rows[rounds / 2];
    (best_a, best_b, ma / mb)
}

/// The writer and the reader against their oracles, `Display` and
/// `str::parse`, in one binary: `cargo test -p erms-control --release --
/// --ignored number_speed --nocapture`. Prints the best ns per number of
/// each and the median of their paired ratios; asserts nothing about speed.
#[test]
#[ignore = "timing; run in release with --nocapture"]
fn number_speed() {
    use std::fmt::Write as _;
    let mut rng = Stream(1);
    let times: Vec<f64> = (0..20_000)
        .map(|_| 2_000.0 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 28_000.0)
        .collect();
    let counts: Vec<f64> = (0..20_000).map(|i| f64::from(i % 16)).collect();
    for (name, values) in [("times", &times), ("integers", &counts)] {
        let tree = Json::Arr(values.iter().map(|&x| Json::Num(x)).collect());
        let text = tree.render();
        let (write, display, ratio) = paired_ns(
            101,
            values.len(),
            || tree.render().len(),
            || {
                let mut out = String::new();
                for x in values.iter() {
                    write!(out, "{x},").unwrap();
                }
                out.len()
            },
        );
        println!("{name}: write {write:.1} ns, Display {display:.1} ns, ratio {ratio:.3}");
        let (read, from_str, ratio) = paired_ns(
            101,
            values.len(),
            || {
                let mut p = Parser::new(&text);
                p.eat(b'[');
                let mut n = 0;
                p.sequence(b']', |p| p.number().map(|_| n += 1)).unwrap();
                n
            },
            || {
                let inner = &text[1..text.len() - 1];
                inner
                    .split(',')
                    .map(|t| t.parse::<f64>().unwrap())
                    .filter(|x| *x >= 0.0)
                    .count()
            },
        );
        println!("{name}: read {read:.1} ns, str::parse {from_str:.1} ns, ratio {ratio:.3}");
    }
}
