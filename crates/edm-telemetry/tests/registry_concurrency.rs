//! Cross-crate integration tests: the registry under real worker-pool
//! concurrency, bucket-layout stability across the JSON exposition, and a
//! scrape-style parse of the Prometheus text format.

use edm_telemetry::metrics::{
    bucket_bounds, quantile_from_buckets, MetricSnapshot, Registry, HISTOGRAM_BUCKETS,
};
use qsim::pool::WorkerPool;

#[test]
fn concurrent_increments_from_the_worker_pool_sum_exactly() {
    edm_telemetry::set_enabled(true);
    let registry = Registry::new();
    let counter = registry.counter("edm_test_pool_hits_total", "Pool increments");
    let hist = registry.histogram("edm_test_pool_latency_us", "Pool observations");

    let items: Vec<u64> = (0..1_000).collect();
    let pool = WorkerPool::new(3);
    let echoed = pool.map(&items, 4, |_, &i| {
        counter.inc();
        counter.add(2);
        hist.observe(i + 1);
        i
    });

    assert_eq!(echoed, items.into_iter().map(Ok).collect::<Vec<_>>());
    let snapshot = registry.snapshot();
    let MetricSnapshot::Counter { value, .. } = &snapshot[0] else {
        panic!("expected the counter first, got {snapshot:?}");
    };
    assert_eq!(
        *value, 3_000,
        "every worker increment must land, none double-counted"
    );
    let MetricSnapshot::Histogram { snapshot: h, .. } = &snapshot[1] else {
        panic!("expected the histogram second");
    };
    assert_eq!(h.count, 1_000);
    assert_eq!(h.sum, (1..=1_000u64).sum::<u64>());
}

#[test]
fn bucket_layout_is_stable_across_json_exposition() {
    edm_telemetry::set_enabled(true);
    // The bounds are a compile-time constant: exactly 2^0 .. 2^27. Any
    // change here breaks every archived snapshot, so pin them.
    let bounds = bucket_bounds();
    assert_eq!(bounds.len(), HISTOGRAM_BUCKETS);
    for (i, &b) in bounds.iter().enumerate() {
        assert_eq!(b, 1u64 << i, "bucket {i} bound drifted");
    }

    // One histogram alone in a registry → the JSON document has a single
    // metrics entry whose buckets we can recover exactly.
    let registry = Registry::new();
    let hist = registry.histogram("edm_test_layout_us", "Layout stability");
    for v in [1, 2, 3, 4, 5, 1_000, 1_000_000, u64::MAX] {
        hist.observe(v);
    }
    let rendered = edm_telemetry::export::json(&registry);
    let inner = rendered
        .split("\"buckets\":[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("histogram JSON carries a buckets array");
    let parsed: Vec<u64> = inner.split(',').map(|n| n.parse().unwrap()).collect();

    let MetricSnapshot::Histogram { snapshot, .. } = &registry.snapshot()[0] else {
        panic!("expected one histogram");
    };
    assert_eq!(
        parsed, snapshot.buckets,
        "serialized buckets must match the live counts, index for index"
    );
    // Quantiles computed from the parsed buckets equal quantiles from the
    // live histogram — the whole point of a stable layout.
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(
            quantile_from_buckets(snapshot.count, &parsed, q),
            quantile_from_buckets(snapshot.count, &snapshot.buckets, q)
        );
    }
    // u64::MAX overflows every finite bucket: visible only via count.
    assert_eq!(snapshot.count as usize, 8);
    assert_eq!(snapshot.buckets.iter().sum::<u64>(), 7);
}

#[test]
fn prometheus_text_survives_a_scrape_style_parse() {
    edm_telemetry::set_enabled(true);
    let registry = Registry::new();
    registry
        .counter("edm_test_scrape_hits_total", "Scrape hits")
        .add(41);
    registry
        .gauge("edm_test_scrape_depth", "Scrape depth")
        .set(-5);
    let hist = registry.histogram("edm_test_scrape_us", "Scrape latency");
    for v in [1, 2, 2, 700] {
        hist.observe(v);
    }

    let text = edm_telemetry::export::prometheus_text(&registry);

    // Parse the way a scraper does: `# TYPE` declares the kind, every
    // non-comment line is `series value`.
    let mut types = std::collections::BTreeMap::new();
    let mut values = std::collections::BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            types.insert(
                it.next().unwrap().to_string(),
                it.next().unwrap().to_string(),
            );
        } else if !line.starts_with('#') && !line.is_empty() {
            let (series, value) = line.rsplit_once(' ').expect("series value");
            values.insert(series.to_string(), value.parse::<i64>().unwrap());
        }
    }

    assert_eq!(types["edm_test_scrape_hits_total"], "counter");
    assert_eq!(types["edm_test_scrape_depth"], "gauge");
    assert_eq!(types["edm_test_scrape_us"], "histogram");
    assert_eq!(values["edm_test_scrape_hits_total"], 41);
    assert_eq!(values["edm_test_scrape_depth"], -5);
    assert_eq!(values["edm_test_scrape_us_count"], 4);
    assert_eq!(values["edm_test_scrape_us_sum"], 705);
    // Cumulative buckets parse back to the exact distribution.
    assert_eq!(values["edm_test_scrape_us_bucket{le=\"1\"}"], 1);
    assert_eq!(values["edm_test_scrape_us_bucket{le=\"2\"}"], 3);
    assert_eq!(values["edm_test_scrape_us_bucket{le=\"512\"}"], 3);
    assert_eq!(values["edm_test_scrape_us_bucket{le=\"1024\"}"], 4);
    assert_eq!(values["edm_test_scrape_us_bucket{le=\"+Inf\"}"], 4);
    // The +Inf series equals _count — the invariant scrapers rely on.
    assert_eq!(
        values["edm_test_scrape_us_bucket{le=\"+Inf\"}"],
        values["edm_test_scrape_us_count"]
    );
}
