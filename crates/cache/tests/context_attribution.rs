//! Per-context attribution of cache telemetry.
//!
//! Two telemetry contexts share one artifact cache; each must see only
//! its own lookups in its scoped counter deltas, and the per-context hit
//! ratio must be derived from those deltas — the process-global
//! `cache.hit_ratio` gauge mixes every caller and would misattribute.
//! The payload bytes a hit returns must be identical with and without a
//! context entered (telemetry never touches data).

use kgtosa_cache::{ArtifactCache, CacheKey, CacheOutcome, SweepAction};
use kgtosa_obs::TelemetryContext;

fn key(tag: u64) -> CacheKey {
    CacheKey {
        kg_fingerprint: 0xD00D_0000 + tag,
        pattern: "d1h1".into(),
        task: "nc:Paper".into(),
        extractor: "test".into(),
        params: 7,
    }
}

#[test]
fn contexts_attribute_cache_lookups_separately() {
    let dir = std::env::temp_dir()
        .join("kgtosa-cache-ctx")
        .join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = ArtifactCache::open(&dir).unwrap();

    let stored = key(1);
    let absent = key(2);
    let payload = b"context attribution payload".to_vec();
    cache.store(&stored, &payload).unwrap();

    // Baseline: an uncontexted hit, for the bit-identity check below.
    let bare = cache.lookup(&stored);
    assert_eq!(bare.outcome, CacheOutcome::Hit);

    // Context 1: three hits, one miss → ratio 0.75.
    let ctx1 = TelemetryContext::new("ctx1");
    {
        let _s = ctx1.enter();
        for _ in 0..3 {
            let hit = cache.lookup(&stored);
            assert_eq!(hit.outcome, CacheOutcome::Hit);
            assert_eq!(hit.payload.as_deref(), bare.payload.as_deref());
        }
        assert_eq!(cache.lookup(&absent).outcome, CacheOutcome::Miss);
    }

    // Context 2: two misses, zero hits → ratio 0.0.
    let ctx2 = TelemetryContext::new("ctx2");
    {
        let _s = ctx2.enter();
        for _ in 0..2 {
            assert_eq!(cache.lookup(&absent).outcome, CacheOutcome::Miss);
        }
    }

    assert_eq!(ctx1.counter_delta("cache.hits"), 3);
    assert_eq!(ctx1.counter_delta("cache.misses"), 1);
    assert_eq!(ctx2.counter_delta("cache.hits"), 0);
    assert_eq!(ctx2.counter_delta("cache.misses"), 2);
    assert!((ctx1.cache_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    assert_eq!(ctx2.cache_hit_ratio().unwrap(), 0.0);
    // The global ratio saw all seven lookups (4 hits / 7) and matches
    // neither context — exactly why the per-context value is derived
    // from scoped deltas instead of the shared gauge.
    let global = kgtosa_obs::gauge_f64("cache.hit_ratio").get();
    assert!((global - 4.0 / 7.0).abs() < 1e-12, "global ratio {global}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep publishes its migrations on a flusher thread, but counts them on
/// the thread that called it: a context entered there sees every
/// migration and invalidation the sweep made.
#[test]
fn a_sweep_counts_its_migrations_in_the_callers_context() {
    let dir = std::env::temp_dir()
        .join("kgtosa-cache-ctx-sweep")
        .join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = ArtifactCache::open(&dir).unwrap();
    let old_fp = 0xD00D_5000;
    let keyed = |task: &str| CacheKey {
        kg_fingerprint: old_fp,
        task: task.into(),
        ..key(0)
    };
    for task in ["nc:A", "nc:B", "nc:C", "nc:D"] {
        cache.store(&keyed(task), task.as_bytes()).unwrap();
    }

    let ctx = TelemetryContext::new("sweep");
    let report = {
        let _s = ctx.enter();
        cache
            .sweep_fingerprint(old_fp, old_fp + 1, |info, payload| {
                if info.task.as_deref() == Some("nc:D") {
                    SweepAction::Invalidate
                } else {
                    SweepAction::Migrate(payload)
                }
            })
            .unwrap()
    };
    assert_eq!(
        (report.migrated, report.invalidated, report.failed),
        (3, 1, 0)
    );
    assert_eq!(ctx.counter_delta("cache.migrations"), 3);
    assert_eq!(ctx.counter_delta("cache.invalidations"), 1);
    let migrated = CacheKey {
        kg_fingerprint: old_fp + 1,
        ..keyed("nc:B")
    };
    assert_eq!(
        cache.lookup(&migrated).payload.as_deref(),
        Some(&b"nc:B"[..])
    );

    let _ = std::fs::remove_dir_all(&dir);
}
