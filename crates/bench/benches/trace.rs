//! Event-trace pipeline benches: trace recording and parsing throughput,
//! and graph construction from the same trace.
//!
//! `write` measures the full record run (VM + varint encoder into memory);
//! `read` measures decoding an already-recorded trace into a counting
//! sink; `build_seq` measures rebuilding `G_cost` from the trace in one
//! sequential pass. `salvage_clean` measures the salvage scan
//! (per-segment CRC verification plus a trial decode of every segment)
//! on an undamaged trace — the worst-case cost of asking for recovery
//! you did not need — and `salvage_cut` the same on a half-truncated
//! file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowutil_bench::{run_recorded, run_replayed, run_salvage_replayed};
use lowutil_core::CostGraphConfig;
use lowutil_vm::trace::wire;
use lowutil_vm::{CountingSink, TraceReader};
use lowutil_workloads::{workload, WorkloadSize};

/// A deterministic value mix shaped like an event stream: mostly
/// 1-byte varints (tags, registers), a solid share of 2-byte ones
/// (small deltas), and a tail of longer encodings — the distribution
/// the branchless 1–2 byte fast paths are built for.
fn varint_mix(n: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            match state % 100 {
                0..=69 => state % 0x80,
                70..=94 => 0x80 + state % (0x4000 - 0x80),
                95..=98 => 0x4000 + state % 0xFFFF_FFFF,
                _ => state,
            }
        })
        .collect()
}

/// Reference loop encoder — the shape the codec had before the fast
/// paths — so the isolated win is measured against a baseline in the
/// same bench run, not remembered from an older commit.
fn put_u64_loop(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reference loop decoder matching the pre-fast-path `Cur::u64`.
fn read_u64_loop(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// The varint codec in isolation: encode and decode a million-value
/// event-stream-shaped mix, fast-path codec vs the reference loop.
fn bench_varint(c: &mut Criterion) {
    let values = varint_mix(1 << 20);
    let mut encoded = Vec::new();
    for &v in &values {
        wire::put_u64(&mut encoded, v);
    }
    let mut group = c.benchmark_group("varint");
    group.throughput(Throughput::Elements(values.len() as u64));

    group.bench_function("encode", |b| {
        let mut buf = Vec::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            for &v in &values {
                wire::put_u64(&mut buf, v);
            }
            buf.len()
        })
    });
    group.bench_function("encode_loop", |b| {
        let mut buf = Vec::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            for &v in &values {
                put_u64_loop(&mut buf, v);
            }
            buf.len()
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut r = wire::Reader::new(&encoded);
            let mut acc = 0u64;
            while let Some(v) = r.next() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
    group.bench_function("decode_loop", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut acc = 0u64;
            while let Some(v) = read_u64_loop(&encoded, &mut pos) {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    for name in ["fop", "chart"] {
        let w = workload(name, WorkloadSize::Small);
        let (_, trace, stats, _) = run_recorded(&w.program);

        group.throughput(Throughput::Bytes(stats.bytes));
        group.bench_with_input(BenchmarkId::new("write", name), &w.program, |b, p| {
            b.iter(|| run_recorded(p))
        });

        group.bench_with_input(BenchmarkId::new("read", name), &trace, |b, t| {
            b.iter(|| {
                let reader = TraceReader::new(t).expect("trace parses");
                let mut sink = CountingSink::new();
                reader.replay(&mut sink).expect("trace replays");
                sink.events
            })
        });

        group.bench_with_input(BenchmarkId::new("build_seq", name), &trace, |b, t| {
            b.iter(|| run_replayed(&w.program, CostGraphConfig::default(), t))
        });

        group.bench_with_input(BenchmarkId::new("salvage_clean", name), &trace, |b, t| {
            b.iter(|| run_salvage_replayed(&w.program, CostGraphConfig::default(), t))
        });

        let cut = &trace[..trace.len() / 2];
        group.bench_with_input(BenchmarkId::new("salvage_cut", name), &cut, |b, t| {
            b.iter(|| run_salvage_replayed(&w.program, CostGraphConfig::default(), t))
        });
    }
    group.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_trace, bench_varint
}
criterion_main!(benches);
