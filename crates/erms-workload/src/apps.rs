//! DeathStarBench-like benchmark applications (§6.1).
//!
//! The paper evaluates on three applications from DeathStarBench \[18\]:
//!
//! | Application       | unique microservices | services | shared |
//! |-------------------|---------------------:|---------:|-------:|
//! | Social Network    | 36                   | 3        | 3      |
//! | Media Service     | 38                   | 1        | —      |
//! | Hotel Reservation | 15                   | 4        | 3      |
//!
//! The topologies here follow the published architecture diagrams: an
//! nginx front end, logic tiers fanning out in parallel to storage tiers
//! (memcached + mongodb pairs), with the storage-heavy microservices
//! (postStorage, userTimeline, …) markedly more workload-sensitive than
//! the stateless logic tiers. Latency-profile parameters are fixed,
//! hand-picked values in the Fig. 3 ranges, so experiments are
//! deterministic.

use erms_core::app::{App, AppBuilder, Sla};
use erms_core::ids::{MicroserviceId, ServiceId};
use erms_core::latency::LatencyProfile;
use erms_core::resources::Resources;

/// A built benchmark application plus name-based handles.
#[derive(Debug, Clone)]
pub struct BenchmarkApp {
    /// The application.
    pub app: App,
    /// Microservices designed to be shared between services.
    pub shared: Vec<MicroserviceId>,
    /// All service ids, in declaration order.
    pub services: Vec<ServiceId>,
}

/// Profile helper: a kneed, interference-sensitive profile.
///
/// `sensitivity` scales the slope (storage tiers ≫ logic tiers); `knee` is
/// the per-container calls/min where queueing kicks in.
fn profile(sensitivity: f64, knee: f64, intercept_ms: f64) -> LatencyProfile {
    let slope_low = 0.0015 * sensitivity;
    let slope_high = slope_low * 5.0;
    let mut p = LatencyProfile::kneed(slope_low, intercept_ms, slope_high, knee);
    // Interference steepens both segments and the knee moves forward.
    p.low.alpha = slope_low * 0.8;
    p.low.beta = slope_low * 0.5;
    p.high.alpha = slope_high * 0.8;
    p.high.beta = slope_high * 0.5;
    p.cutoff = erms_core::latency::CutoffModel::Affine {
        base: knee,
        k_cpu: knee * 0.3,
        k_mem: knee * 0.2,
        min: knee * 0.4,
    };
    p
}

/// The Social Network application: 36 unique microservices, 3 services
/// (compose-post, read-home-timeline, read-user-timeline), 3 shared
/// microservices (postStorage, socialGraph, userService).
pub fn social_network(sla_ms: f64) -> BenchmarkApp {
    let mut b = AppBuilder::new("social-network");
    let r = Resources::default;

    // Front/logic tier (fast, low sensitivity).
    let nginx = b.microservice("nginx", profile(0.5, 1500.0, 0.8), r());
    let compose = b.microservice("composePost", profile(1.0, 1200.0, 1.5), r());
    let unique_id = b.microservice("uniqueId", profile(0.3, 2000.0, 0.4), r());
    let url_shorten = b.microservice("urlShorten", profile(0.6, 1500.0, 0.8), r());
    let user_mention = b.microservice("userMention", profile(0.7, 1500.0, 0.9), r());
    let text = b.microservice("textService", profile(0.8, 1400.0, 1.0), r());
    let media = b.microservice("mediaService", profile(1.2, 1000.0, 1.6), r());
    // Shared tier (storage-backed, high sensitivity).
    let user_service = b.microservice("userService", profile(2.5, 650.0, 1.4), r());
    let social_graph = b.microservice("socialGraph", profile(3.0, 600.0, 1.6), r());
    let post_storage = b.microservice("postStorage", profile(3.5, 500.0, 1.8), r());
    // Timeline tier.
    let home_timeline = b.microservice("homeTimeline", profile(1.8, 800.0, 1.2), r());
    let user_timeline = b.microservice("userTimeline", profile(4.0, 450.0, 1.6), r());
    let write_home = b.microservice("writeHomeTimeline", profile(1.4, 900.0, 1.4), r());

    // Storage backends (memcached fast / mongodb slow) and sidecars to
    // reach 36 unique microservices.
    let mut backends = Vec::new();
    for (i, owner) in [
        "user",
        "socialGraph",
        "post",
        "homeTimeline",
        "userTimeline",
        "media",
        "url",
        "userMention",
    ]
    .iter()
    .enumerate()
    {
        let mc = b.microservice(
            format!("{owner}Memcached"),
            profile(0.4 + 0.05 * i as f64, 1800.0, 0.3),
            r(),
        );
        let mongo = b.microservice(
            format!("{owner}MongoDB"),
            profile(0.6 + 0.05 * i as f64, 1600.0, 6.0),
            r(),
        );
        backends.push((mc, mongo));
    }
    // Auxiliary microservices to match the benchmark's 36 unique count.
    for name in [
        "jaegerAgent",
        "textFilter",
        "mediaFilter",
        "uniqueIdCounter",
        "rateLimiter",
        "antispam",
        "notifier",
    ] {
        b.microservice(name, profile(0.4, 1600.0, 0.4), r());
    }

    let (user_mc, user_db) = backends[0];
    let (graph_mc, graph_db) = backends[1];
    let (post_mc, post_db) = backends[2];
    let (home_mc, _) = backends[3];
    let (utl_mc, utl_db) = backends[4];
    let (media_mc, _) = backends[5];
    let (url_mc, _) = backends[6];
    let (mention_mc, _) = backends[7];

    // Service 1: compose-post — the heavy write path.
    let compose_svc = b.service("compose-post", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(nginx);
        let cp = g.call_seq(root, compose);
        // Parallel pre-processing fan-out.
        let pre = g.call_par(cp, &[unique_id, url_shorten, user_mention, text, media]);
        g.call_seq(pre[1], url_mc);
        g.call_seq(pre[2], mention_mc);
        g.call_seq(pre[4], media_mc);
        // Then user lookup + storage writes.
        let user = g.call_seq(cp, user_service);
        g.call_par(user, &[user_mc, user_db]);
        let post = g.call_seq(cp, post_storage);
        g.call_par(post, &[post_mc, post_db]);
        let wht = g.call_seq(cp, write_home);
        let sg = g.call_seq(wht, social_graph);
        g.call_par(sg, &[graph_mc, graph_db]);
        g.call_seq(wht, home_mc);
    });

    // Service 2: read-home-timeline.
    let read_home_svc = b.service("read-home-timeline", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(nginx);
        let ht = g.call_seq(root, home_timeline);
        g.call_seq(ht, home_mc);
        let post = g.call_seq(ht, post_storage);
        g.call_par(post, &[post_mc, post_db]);
        let sg = g.call_seq(ht, social_graph);
        g.call_seq(sg, graph_mc);
        g.call_seq(ht, user_service);
    });

    // Service 3: read-user-timeline.
    let read_user_svc = b.service("read-user-timeline", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(nginx);
        let ut = g.call_seq(root, user_timeline);
        g.call_par(ut, &[utl_mc, utl_db]);
        let post = g.call_seq(ut, post_storage);
        g.call_par(post, &[post_mc, post_db]);
        g.call_seq(ut, user_service);
    });

    let app = b.build().expect("social network topology is valid");
    debug_assert_eq!(app.microservice_count(), 36);
    BenchmarkApp {
        app,
        shared: vec![post_storage, social_graph, user_service],
        services: vec![compose_svc, read_home_svc, read_user_svc],
    }
}

/// The Media Service application: 38 unique microservices, one service
/// (compose-review).
pub fn media_service(sla_ms: f64) -> BenchmarkApp {
    let mut b = AppBuilder::new("media-service");
    let r = Resources::default;
    let nginx = b.microservice("nginx", profile(0.5, 1500.0, 0.8), r());
    let compose_review = b.microservice("composeReview", profile(1.0, 1200.0, 1.5), r());
    let unique_id = b.microservice("uniqueId", profile(0.3, 2000.0, 0.4), r());
    let movie_id = b.microservice("movieId", profile(0.8, 1300.0, 1.0), r());
    let review_text = b.microservice("text", profile(0.8, 1400.0, 1.0), r());
    let rating = b.microservice("rating", profile(0.9, 1200.0, 1.0), r());
    let user = b.microservice("userService", profile(1.5, 900.0, 1.2), r());
    let review_storage = b.microservice("reviewStorage", profile(3.5, 500.0, 1.8), r());
    let user_review = b.microservice("userReview", profile(3.0, 600.0, 1.6), r());
    let movie_review = b.microservice("movieReview", profile(3.0, 600.0, 1.6), r());
    let mut tiers = vec![
        nginx,
        compose_review,
        unique_id,
        movie_id,
        review_text,
        rating,
        user,
        review_storage,
        user_review,
        movie_review,
    ];
    // memcached + mongodb per stateful tier, plus auxiliaries: total 38.
    let mut caches = Vec::new();
    for owner in [
        "user",
        "reviewStorage",
        "userReview",
        "movieReview",
        "movieId",
        "rating",
        "plot",
        "movieInfo",
        "castInfo",
    ] {
        let mc = b.microservice(format!("{owner}Memcached"), profile(0.4, 1800.0, 0.3), r());
        let db = b.microservice(format!("{owner}MongoDB"), profile(0.6, 1600.0, 6.0), r());
        caches.push((mc, db));
        tiers.push(mc);
        tiers.push(db);
    }
    for name in [
        "plotService",
        "movieInfoService",
        "castInfoService",
        "pageService",
        "videoService",
        "photoService",
        "jaegerAgent",
        "rateLimiter",
        "recommender",
        "searchIndex",
    ] {
        tiers.push(b.microservice(name, profile(0.6, 1500.0, 0.7), r()));
    }

    let svc = b.service("compose-review", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(nginx);
        let cr = g.call_seq(root, compose_review);
        let pre = g.call_par(cr, &[unique_id, movie_id, review_text, rating]);
        g.call_seq(pre[1], caches[4].0);
        let u = g.call_seq(cr, user);
        g.call_par(u, &[caches[0].0, caches[0].1]);
        let rs = g.call_seq(cr, review_storage);
        g.call_par(rs, &[caches[1].0, caches[1].1]);
        let ur = g.call_seq(cr, user_review);
        g.call_par(ur, &[caches[2].0, caches[2].1]);
        let mr = g.call_seq(cr, movie_review);
        g.call_par(mr, &[caches[3].0, caches[3].1]);
    });

    let app = b.build().expect("media service topology is valid");
    debug_assert_eq!(app.microservice_count(), 38);
    BenchmarkApp {
        app,
        shared: Vec::new(),
        services: vec![svc],
    }
}

/// The Hotel Reservation application: 15 unique microservices, 4 services
/// (search, recommend, reserve, user-login), 3 shared microservices
/// (profile, rate, reservation).
pub fn hotel_reservation(sla_ms: f64) -> BenchmarkApp {
    let mut b = AppBuilder::new("hotel-reservation");
    let r = Resources::default;
    let frontend = b.microservice("frontend", profile(0.5, 1500.0, 0.8), r());
    let search = b.microservice("search", profile(1.0, 1100.0, 1.2), r());
    let geo = b.microservice("geo", profile(1.2, 1000.0, 1.2), r());
    let rate = b.microservice("rate", profile(3.0, 600.0, 1.6), r());
    let profile_svc = b.microservice("profile", profile(3.2, 550.0, 1.7), r());
    let recommend = b.microservice("recommendation", profile(1.1, 1100.0, 1.2), r());
    let user = b.microservice("user", profile(0.9, 1200.0, 1.0), r());
    let reservation = b.microservice("reservation", profile(3.5, 500.0, 1.8), r());
    let geo_db = b.microservice("geoMongoDB", profile(0.6, 1600.0, 6.0), r());
    let rate_mc = b.microservice("rateMemcached", profile(0.4, 1800.0, 0.3), r());
    let profile_mc = b.microservice("profileMemcached", profile(0.4, 1800.0, 0.3), r());
    let profile_db = b.microservice("profileMongoDB", profile(0.6, 1600.0, 6.0), r());
    let user_db = b.microservice("userMongoDB", profile(0.6, 1600.0, 6.0), r());
    let resv_mc = b.microservice("reservationMemcached", profile(0.4, 1800.0, 0.3), r());
    let resv_db = b.microservice("reservationMongoDB", profile(0.6, 1600.0, 6.0), r());

    let search_svc = b.service("search-hotel", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(frontend);
        let s = g.call_seq(root, search);
        let near = g.call_seq(s, geo);
        g.call_seq(near, geo_db);
        let rt = g.call_seq(s, rate);
        g.call_seq(rt, rate_mc);
        let pr = g.call_seq(root, profile_svc);
        g.call_par(pr, &[profile_mc, profile_db]);
    });
    let recommend_svc = b.service("recommend", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(frontend);
        let rec = g.call_seq(root, recommend);
        g.call_seq(rec, rate);
        let pr = g.call_seq(root, profile_svc);
        g.call_par(pr, &[profile_mc, profile_db]);
    });
    let reserve_svc = b.service("reserve", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(frontend);
        let u = g.call_seq(root, user);
        g.call_seq(u, user_db);
        let resv = g.call_seq(root, reservation);
        g.call_par(resv, &[resv_mc, resv_db]);
    });
    let login_svc = b.service("user-login", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(frontend);
        let u = g.call_seq(root, user);
        g.call_seq(u, user_db);
        let pr = g.call_seq(root, profile_svc);
        g.call_seq(pr, profile_mc);
    });

    let app = b.build().expect("hotel reservation topology is valid");
    debug_assert_eq!(app.microservice_count(), 15);
    BenchmarkApp {
        app,
        shared: vec![profile_svc, rate, reservation],
        services: vec![search_svc, recommend_svc, reserve_svc, login_svc],
    }
}

/// All three benchmark applications with a common SLA.
pub fn deathstarbench(sla_ms: f64) -> Vec<BenchmarkApp> {
    vec![
        social_network(sla_ms),
        media_service(sla_ms),
        hotel_reservation(sla_ms),
    ]
}

/// The Fig. 4 microcosm: one service calling userTimeline (U, workload
/// sensitive: steep slope, small intercept) then postStorage (P: flat
/// slope but a large constant storage cost) sequentially.
///
/// The contrast matters: baselines allocate latency targets from *mean*
/// latency, which is dominated by P's large intercept, so they hand the
/// steep U a small target — the failure mode Fig. 4 illustrates.
pub fn fig4_app(sla_ms: f64) -> (App, [MicroserviceId; 2], ServiceId) {
    let mut b = AppBuilder::new("fig4");
    let u = b.microservice(
        "userTimeline",
        profile(4.0, 600.0, 1.2),
        Resources::default(),
    );
    let p = b.microservice(
        "postStorage",
        profile(0.3, 1800.0, 15.0),
        Resources::default(),
    );
    let svc = b.service("read-user-timeline", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(u);
        g.call_seq(root, p);
    });
    (b.build().expect("valid"), [u, p], svc)
}

/// The Fig. 5 sharing microcosm: service 1 = U → P, service 2 = H → P,
/// with U more sensitive than H and P shared.
pub fn fig5_app(sla_ms: f64) -> (App, [MicroserviceId; 3], [ServiceId; 2]) {
    let mut b = AppBuilder::new("fig5");
    let u = b.microservice(
        "userTimeline",
        profile(4.0, 600.0, 1.5),
        Resources::default(),
    );
    let h = b.microservice(
        "homeTimeline",
        profile(0.4, 1500.0, 1.2),
        Resources::default(),
    );
    let p = b.microservice(
        "postStorage",
        profile(1.5, 900.0, 1.5),
        Resources::default(),
    );
    let s1 = b.service("svc-1", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(u);
        g.call_seq(root, p);
    });
    let s2 = b.service("svc-2", Sla::p95_ms(sla_ms), |g| {
        let root = g.entry(h);
        g.call_seq(root, p);
    });
    (b.build().expect("valid"), [u, h, p], [s1, s2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_network_shape_matches_paper() {
        let bench = social_network(200.0);
        assert_eq!(bench.app.microservice_count(), 36);
        assert_eq!(bench.app.service_count(), 3);
        let shared = bench.app.shared_microservices();
        for ms in &bench.shared {
            assert!(shared.contains(ms), "{ms} should be shared");
        }
        assert!(shared.len() >= 3);
    }

    #[test]
    fn media_service_shape_matches_paper() {
        let bench = media_service(200.0);
        assert_eq!(bench.app.microservice_count(), 38);
        assert_eq!(bench.app.service_count(), 1);
    }

    #[test]
    fn hotel_reservation_shape_matches_paper() {
        let bench = hotel_reservation(200.0);
        assert_eq!(bench.app.microservice_count(), 15);
        assert_eq!(bench.app.service_count(), 4);
        assert!(
            bench.app.shared_microservices().len() >= 3,
            "profile, rate, reservation and user/frontend are shared"
        );
    }

    #[test]
    fn storage_tiers_are_more_sensitive_than_logic() {
        let bench = social_network(200.0);
        let app = &bench.app;
        let itf = erms_core::latency::Interference::default();
        let nginx = app.microservice_by_name("nginx").unwrap();
        let post = app.microservice_by_name("postStorage").unwrap();
        let slope = |ms| app.microservice(ms).unwrap().profile.low.slope(itf);
        assert!(slope(post) > 3.0 * slope(nginx));
    }

    #[test]
    fn all_profiles_valid_and_slas_feasible() {
        for bench in deathstarbench(200.0) {
            for (_, m) in bench.app.microservices() {
                assert!(m.profile.validate().is_ok(), "{}", m.name);
            }
            // Every service can be planned at a modest workload.
            let w = erms_core::app::WorkloadVector::uniform(
                &bench.app,
                erms_core::app::RequestRate::per_minute(6_000.0),
            );
            let plan = erms_core::manager::ErmsScaler::new(&bench.app)
                .plan(&w, erms_core::latency::Interference::default());
            assert!(plan.is_ok(), "{}: {:?}", bench.app.name(), plan.err());
        }
    }

    #[test]
    fn fig_apps_build() {
        let (app4, [u, p], _) = fig4_app(300.0);
        assert_eq!(app4.microservice_count(), 2);
        assert_ne!(u, p);
        let (app5, _, [s1, s2]) = fig5_app(300.0);
        assert_eq!(app5.service_count(), 2);
        assert_ne!(s1, s2);
        assert_eq!(app5.shared_microservices().len(), 1);
    }
}
