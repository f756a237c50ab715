//! The shortest decimal digits of an `f64`: the core of Ryū (Ulf Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018).
//!
//! For a finite, positive double, [`shortest`] finds the decimal
//! `digits × 10^exponent` with the fewest digits that reads back as the
//! same bits, and of those the one nearest the exact value. Rust's `f64`
//! `Display` prints the same digits; `json.rs` lays them out the way it
//! does. Two points where this differs from the published algorithm:
//!
//! * **Ties round up.** When the exact value lies halfway between the two
//!   nearest shortest candidates, Ryū picks the even one and std the one
//!   of larger magnitude (`233115890514796.125` prints as `…796.13`).
//!   This module follows std, so it needs no test of whether the digits
//!   it drops are exactly `50…0`.
//! * **The tables are computed, not typed in.** `5^i` and `2^k / 5^i`,
//!   each to 125 significant bits, come from exact integer arithmetic at
//!   first use (a few milliseconds, once per process).

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Significant bits of every table entry.
const POW5_BITS: i32 = 125;
/// `5^i` for every `i` a double's binary exponent can call for.
const POW5_ENTRIES: usize = 326;
/// `2^k / 5^q` for every `q` a double's binary exponent can call for.
const POW5_INV_ENTRIES: usize = 342;

/// The multipliers: `pow5[i]` is `5^i` scaled to 125 bits, `pow5_inv[q]`
/// is `⌊2^(b − 1 + 125) / 5^q⌋ + 1` where `b` is the bit length of `5^q`.
struct Tables {
    pow5: Vec<u128>,
    pow5_inv: Vec<u128>,
}

/// The tables, built on first use.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::compute)
}

impl Tables {
    fn compute() -> Self {
        let mut power = Big(vec![1]);
        let mut pow5 = Vec::with_capacity(POW5_ENTRIES);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_ENTRIES);
        for i in 0..POW5_INV_ENTRIES {
            let bits = power.bits();
            if i < POW5_ENTRIES {
                pow5.push(if bits > POW5_BITS as u32 {
                    power.shifted_down(bits - POW5_BITS as u32)
                } else {
                    power.shifted_down(0) << (POW5_BITS as u32 - bits)
                });
            }
            pow5_inv.push(power.reciprocal(bits - 1) + 1);
            power.times5();
        }
        Self { pow5, pow5_inv }
    }
}

/// A non-negative integer of any size, in little-endian 64-bit limbs:
/// just enough arithmetic to build the tables.
struct Big(Vec<u64>);

impl Big {
    fn times5(&mut self) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let product = u128::from(*limb) * 5 + carry;
            *limb = product as u64;
            carry = product >> 64;
        }
        if carry != 0 {
            self.0.push(carry as u64);
        }
    }

    /// Bit length; the top limb is never zero.
    fn bits(&self) -> u32 {
        let top = self.0.last().copied().unwrap_or(0);
        64 * (self.0.len() as u32 - 1) + (64 - top.leading_zeros())
    }

    /// The low 128 bits of `self >> shift`.
    fn shifted_down(&self, shift: u32) -> u128 {
        let limb = |k: usize| u128::from(self.0.get(k).copied().unwrap_or(0));
        let (word, offset) = ((shift / 64) as usize, shift % 64);
        let low = (limb(word) | limb(word + 1) << 64) >> offset;
        if offset == 0 {
            low
        } else {
            low | limb(word + 2) << (128 - offset)
        }
    }

    fn shift_left_one(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = *limb << 1 | carry;
            carry = next;
        }
        if carry != 0 {
            self.0.push(carry);
        }
    }

    /// `self >= other`, for numbers whose limbs may differ in count.
    fn at_least(&self, other: &Big) -> bool {
        let limb = |b: &Big, k: usize| b.0.get(k).copied().unwrap_or(0);
        for k in (0..self.0.len().max(other.0.len())).rev() {
            let (a, b) = (limb(self, k), limb(other, k));
            if a != b {
                return a > b;
            }
        }
        true
    }

    /// `self -= other`, for `self >= other`.
    fn subtract(&mut self, other: &Big) {
        let mut borrow = false;
        for (k, limb) in self.0.iter_mut().enumerate() {
            let (diff, under) = limb.overflowing_sub(other.0.get(k).copied().unwrap_or(0));
            let (diff, under_again) = diff.overflowing_sub(u64::from(borrow));
            *limb = diff;
            borrow = under || under_again;
        }
        while self.0.len() > 1 && self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    /// `⌊2^(s + 125) / self⌋` for `2^s ≤ self < 2^(s + 1)`, by shift,
    /// compare and subtract: the first step finds the quotient of `2^s`,
    /// each of the 125 after it one more bit.
    fn reciprocal(&self, s: u32) -> u128 {
        let mut rest = Big(vec![0; s as usize / 64 + 1]);
        rest.0[s as usize / 64] = 1 << (s % 64);
        let mut quotient = 0u128;
        for step in 0..=POW5_BITS {
            if step > 0 {
                rest.shift_left_one();
                quotient <<= 1;
            }
            if rest.at_least(self) {
                rest.subtract(self);
                quotient |= 1;
            }
        }
        quotient
    }
}

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut factor = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        factor += 1;
    }
    factor >= p
}

/// `⌊m × factor / 2^shift⌋` for a 125-bit `factor` and `shift ≥ 64`.
fn mul_shift(m: u64, factor: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (factor as u64 as u128);
    let high = u128::from(m) * (factor >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest `digits × 10^exponent` that reads back as the finite,
/// positive double with these bits; of several, the nearest to its exact
/// value, and the larger of two equally near.
pub(crate) fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    // The value is m2 × 2^e2; two more bits of e2 make room for the
    // interval's ends at a quarter step.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-half-even reading: an even mantissa owns the interval's ends.
    let accept_bounds = m2 & 1 == 0;
    // The value and its interval's ends, ×4: mm is nearer below a power
    // of two, whose lower neighbour is half as far away.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale all three by 10^-e10 to integers vr, vp and vm, rounded down.
    // Whether a scaled end is exact matters only for the lower one, which
    // is then a candidate itself (`vm_exact`); an exact upper end that is
    // not accepted is stepped back by one.
    let tables = tables();
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        let factor = tables.pow5_inv[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, factor, shift),
            mul_shift(mp, factor, shift),
            mul_shift(mm, factor, shift),
        );
        // At most one of mp, mv and mm is a multiple of 5. When it is mv,
        // only a tie can follow, and ties round up without a test.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5_bits(i) - POW5_BITS);
        let factor = tables.pow5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, factor, shift),
            mul_shift(mp, factor, shift),
            mul_shift(mm, factor, shift),
        );
        if q <= 1 {
            // mv has two trailing zero bits, mp one, mm one iff mm_shift.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_exact {
        // Rare: the lower end is a candidate if it ends in zeros.
        while vp / 10 > vm / 10 {
            vm_exact &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let digits = vr + u64::from((vr == vm && !vm_exact) || last_removed >= 5);
        (digits, e10 + removed)
    } else {
        // Common: two digits at a time first, then one.
        if vp / 100 > vm / 100 {
            last_removed = u64::from(vr % 100 >= 50) * 5;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        let digits = vr + u64::from(vr == vm || last_removed >= 5);
        (digits, e10 + removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a × b` as (high, low) halves of the 256-bit product.
    fn wide_mul(a: u128, b: u128) -> (u128, u128) {
        let (a1, a0) = (a >> 64, a & u128::from(u64::MAX));
        let (b1, b0) = (b >> 64, b & u128::from(u64::MAX));
        let (low, cross1, cross2, high) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let middle =
            (low >> 64) + (cross1 & u128::from(u64::MAX)) + (cross2 & u128::from(u64::MAX));
        let low = (low & u128::from(u64::MAX)) | middle << 64;
        (high + (cross1 >> 64) + (cross2 >> 64) + (middle >> 64), low)
    }

    /// Entries `0..=55` (where `5^i` still fits a `u128`) against the
    /// definitions, checked in 128-bit arithmetic.
    #[test]
    fn table_entries_match_u128_arithmetic() {
        let tables = tables();
        assert_eq!(tables.pow5.len(), POW5_ENTRIES);
        assert_eq!(tables.pow5_inv.len(), POW5_INV_ENTRIES);
        for i in 0..=55u32 {
            let power = 5u128.pow(i);
            let bits = 128 - power.leading_zeros();
            assert_eq!(bits as i32, pow5_bits(i as i32), "pow5_bits({i})");
            let scaled = if bits > 125 {
                power >> (bits - 125)
            } else {
                power << (125 - bits)
            };
            assert_eq!(tables.pow5[i as usize], scaled, "pow5[{i}]");
            // inv − 1 = ⌊2^k / 5^i⌋ with k = bits − 1 + 125:
            // (inv − 1) × 5^i ≤ 2^k < inv × 5^i.
            let inv = tables.pow5_inv[i as usize];
            let k = bits - 1 + 125;
            let two_k = if k >= 128 {
                (1u128 << (k - 128), 0)
            } else {
                (0, 1u128 << k)
            };
            assert!(wide_mul(inv - 1, power) <= two_k, "pow5_inv[{i}] too large");
            assert!(wide_mul(inv, power) > two_k, "pow5_inv[{i}] too small");
        }
        // Two entries of the published tables, as a spot check.
        assert_eq!(tables.pow5[1], 1_441_151_880_758_558_720 << 64);
        assert_eq!(
            tables.pow5_inv[1],
            1_844_674_407_370_955_161 << 64 | 11_068_046_444_225_730_970
        );
    }

    #[test]
    fn digits_and_exponents_of_known_values() {
        for (value, expected) in [
            (1.0, (1, 0)),
            (0.1, (1, -1)),
            (5e-324, (5, -324)),
            (f64::MAX, (17_976_931_348_623_157, 292)),
            (1e23, (1, 23)),
            // 233115890514796.125, a tie: rounded up, as std does.
            (
                f64::from_bits(0x42ea_8090_bb0f_6d84),
                (23_311_589_051_479_613, -2),
            ),
        ] {
            assert_eq!(shortest(f64::to_bits(value)), expected, "{value}");
        }
    }
}
