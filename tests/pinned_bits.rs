//! Output bits pinned in-tree: small seeded runs of the engine's main
//! configurations, each hashed to one digest over its labels, final
//! coordinate bits, iteration count, convergence verdict, cluster count,
//! every [`UpdateCounters`] field and, on the simulated device, the
//! [`KernelSummary`]. A second digest per run covers the rest of its
//! [`RunTrace`] that does not read a clock: the iteration records'
//! indices, both structure peaks, the engine's thread count and, on the
//! simulated device, every cost-model time.
//!
//! A change that claims "output bits unchanged" must leave every digest as
//! it is. A change that moves bits on purpose records the new digests here
//! and says why. The digests depend on the platform's `sin`/`cos`, so the
//! suite only runs on x86-64 Linux, where they were recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use egg_sync::core::egg::algorithm::{Engine, HostEngine};
use egg_sync::core::exec::Executor;
use egg_sync::core::grid::GridGeometry;
use egg_sync::core::instrument::{KernelSummary, RunTrace, Stage, StageTimings, UpdateCounters};
use egg_sync::core::Backend;
use egg_sync::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over little-endian words: stable across toolchains,
/// unlike `std`'s default hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The digest of one run. Destructuring the counter structs makes a new
/// field a compile error here, so it cannot silently escape the pin.
fn digest(run: &Clustering) -> u64 {
    let mut h = Fnv::new();
    h.word(run.labels.len() as u64);
    for &label in &run.labels {
        h.word(u64::from(label));
    }
    for &x in run.final_coords.coords() {
        h.word(x.to_bits());
    }
    h.word(run.iterations as u64);
    h.word(u64::from(run.converged));
    h.word(run.num_clusters as u64);
    let UpdateCounters {
        summary_cells,
        point_pairs,
        sin_calls_avoided,
        moved_points,
        dirty_cells,
        cells_skipped,
        simd_lanes,
        simd_remainder_lanes,
        shard_count,
        halo_movers,
        halo_cells,
        exec_dispatches,
    } = run.trace.update_counters;
    for w in [
        summary_cells,
        point_pairs,
        sin_calls_avoided,
        moved_points,
        dirty_cells,
        cells_skipped,
        simd_lanes,
        simd_remainder_lanes,
        shard_count,
        halo_movers,
        halo_cells,
        exec_dispatches,
    ] {
        h.word(w);
    }
    if let Some(KernelSummary {
        launches,
        mem_words,
        coalesced_words,
        atomics,
    }) = run.trace.kernel_summary
    {
        for w in [launches, mem_words, coalesced_words, atomics] {
            h.word(w);
        }
    }
    h.0
}

/// The digest of a run's trace without its wall-clock times: the number
/// of iteration records and each one's index, the two structure peaks,
/// the engine's thread count and, where the run has them, each record's
/// simulated seconds, the simulated total and every simulated stage.
fn trace_digest(trace: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.iterations.len() as u64);
    for record in &trace.iterations {
        h.word(record.iteration as u64);
        if let Some(sim) = record.sim_seconds {
            h.word(sim.to_bits());
        }
    }
    h.word(trace.peak_structure_bytes as u64);
    h.word(trace.peak_shard_structure_bytes as u64);
    h.word(trace.engine_threads.map_or(u64::MAX, |t| t as u64));
    if let Some(total) = trace.total_sim_seconds {
        h.word(total.to_bits());
    }
    if let Some(stages) = &trace.sim_stages {
        for stage in Stage::ALL {
            h.word(stages.get(stage).to_bits());
        }
    }
    h.0
}

/// The engine under test with every option that an environment override
/// could flip (`EGG_FORCE_SCALAR`, `EGG_NUM_SHARDS`, `EGG_THREADS`) set
/// explicitly, so CI's env legs run the pinned configuration too.
fn engine(epsilon: f64, backend: Backend, threads: usize, num_shards: usize) -> EggSync {
    let mut algo = EggSync::new(epsilon);
    algo.backend = backend;
    algo.threads = Some(threads);
    algo.options.use_simd = true;
    algo.options.num_shards = num_shards;
    algo
}

fn blobs(n: usize, dim: usize, seed: u64) -> Dataset {
    GaussianSpec {
        n,
        dim,
        seed,
        ..GaussianSpec::default()
    }
    .generate_normalized()
    .0
}

fn assert_digest(name: &str, run: &Clustering, want: u64) {
    assert!(run.converged, "{name}: the pinned run must converge");
    let got = digest(run);
    assert_eq!(
        got, want,
        "{name}: output bits or counters moved (digest {got:#018x}, pinned {want:#018x})"
    );
}

fn assert_trace_digest(name: &str, run: &Clustering, want: u64) {
    let got = trace_digest(&run.trace);
    assert_eq!(
        got, want,
        "{name}: the trace moved (digest {got:#018x}, pinned {want:#018x})"
    );
}

/// Re-pinned from `0xac67_e086_3fee_7aed` when the host grid's trig table
/// and lane-table relayout became one lane writer: each refresh spanning
/// more than one chunk issues one parallel dispatch fewer, so
/// `exec_dispatches` fell from 34 to 27. With `exec_dispatches` left out,
/// the digest is `0xf953_033b_9d75_4f6f` before and after.
///
/// The host trace digests below were re-pinned when the host grid gained
/// its run table and narrowed its outer ids to `u32`: only the structure
/// peaks moved. Here 318 756 → 317 416 bytes (was `0x43ec_a9f0_7c70_1fe7`);
/// 8-d blobs 602 456 → 601 700 (`0x7041_fbe8_8813_2da3`); the Skin bridge
/// 145 221 → 143 780 (`0xa301_1b38_1a94_1208`), on 3 shards 290 446 →
/// 287 564 with a shard peak of 145 221 → 143 780
/// (`0xbc0e_42bf_d0f6_7892`); the coincident Skin bridge 164 060 →
/// 162 030 (`0x8758_88ba_071f_445c`), on 3 shards 328 149 → 324 097 with a
/// shard peak of 164 060 → 162 030 (`0x6888_a039_a922_3301`). With the old
/// peaks in place of the new, every new trace hashes to its old digest.
#[test]
fn blobs_2d_bits_are_pinned() {
    let run = engine(0.05, Backend::Host, 2, 1).cluster(&blobs(2_000, 2, 1));
    assert_digest("2-d blobs", &run, 0x649c_32e6_ea62_c5f4);
    assert_trace_digest("2-d blobs", &run, 0xf29b_2db7_a87e_4867);
}

#[test]
fn blobs_8d_bits_are_pinned() {
    let run = engine(0.2, Backend::Host, 2, 1).cluster(&blobs(1_000, 8, 1));
    assert_digest("8-d blobs", &run, 0xf938_3194_41a8_33a9);
    assert_trace_digest("8-d blobs", &run, 0x3e5c_daaf_3c1a_7a83);
}

/// A Skin-like bridge in three dimensions: two σ = 0.003 blobs joined by
/// a small bridge blob between them, all at y = z = 0.5. At ε = 0.05 the
/// blobs never see each other directly but both see the bridge, so the
/// exact criterion runs a long merge. The modes sit near x = 1/3, where a
/// 3-shard plan cuts the leading axis, so the sharded run's shards hold
/// ghost cells of each other.
fn skin_bridge(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Box–Muller: one standard normal per pair of uniforms
    let mut normal = |sigma: f64| {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let v: f64 = rng.gen_range(0.0..1.0);
        sigma * (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    };
    let bridge = (n / 100).max(1);
    let blob = (n - bridge) / 2;
    let mut coords = Vec::with_capacity(n * 3);
    for (x, count) in [(0.29, blob), (0.33, bridge), (0.37, n - blob - bridge)] {
        for _ in 0..count {
            coords.extend([x + normal(0.003), 0.5 + normal(0.003), 0.5 + normal(0.003)]);
        }
    }
    Dataset::from_coords(coords, 3)
}

#[test]
fn skin_bridge_bits_are_pinned() {
    let data = skin_bridge(800, 1);
    let single = engine(0.05, Backend::Host, 2, 1).cluster(&data);
    assert_digest("3-d Skin bridge", &single, 0xd92f_8a34_2361_6037);
    assert_trace_digest("3-d Skin bridge", &single, 0x200c_e3f9_7b0d_a458);
    let sharded = engine(0.05, Backend::Host, 2, 3).cluster(&data);
    assert_digest(
        "3-d Skin bridge on 3 shards",
        &sharded,
        0xffb0_5628_4d9c_c9f8,
    );
    assert_trace_digest(
        "3-d Skin bridge on 3 shards",
        &sharded,
        0xbd1c_0fb7_dfc4_c15c,
    );
}

/// The Skin bridge collapses: SynC drives each cluster onto one position,
/// bit for bit, so the host grid's run table, whose runs are the maximal
/// slot ranges of one cell with equal rows, comes down to one run per
/// cell before the run ends.
#[test]
fn skin_bridge_reaches_one_run_per_cell() {
    let data = skin_bridge(800, 1);
    let algo = engine(0.05, Backend::Host, 2, 1);
    let geometry = GridGeometry::new(3, algo.epsilon, data.len(), algo.variant);
    let mut host = HostEngine::new(geometry, algo.epsilon, algo.options, data.coords());
    let exec = Executor::new(algo.threads);
    let mut collapsed = Vec::new();
    for iteration in 0.. {
        let done = host.iterate(&exec, &mut StageTimings::default()).done;
        let cells = host.gather().iter().max().map_or(0, |&c| c as u64 + 1);
        let refresh = host.last_refresh();
        assert!(cells <= refresh.runs, "iteration {iteration}");
        if refresh.runs == cells {
            collapsed.push(iteration);
        }
        if done {
            break;
        }
    }
    assert!(
        !collapsed.is_empty(),
        "the run table never reached one run per cell"
    );
}

/// Re-pinned from `0xcb8f_7bdb_f53c_bcdf` when the device grid's
/// point-major `sin`/`cos` tables, which nothing read, were deleted: their
/// stores left the kernel word count, so `mem_words` fell from 2 464 999
/// to 2 436 999. With the kernel summary left out, the digest is
/// `0xc3a3_8103_76f6_259c` before and after.
///
/// The trace digest was re-pinned from `0x8996_1606_b2af_b031` when the
/// incremental finish pass's simulated seconds moved to the stage it
/// runs in: each pass was charged to the next iteration's build lap, and
/// the last one to the gather. So the simulated `Clustering` stage fell
/// from 1.012e-5 s to 0, `BuildStructure` rose by as much, and the
/// simulated total moved by one ulp from the order of the sums. Each
/// record's simulated seconds stayed as they were.
#[test]
fn device_bits_are_pinned() {
    // one simulator thread: only then are device bits and kernel counts
    // reproducible
    let run = engine(0.05, Backend::SimulatedGpu, 1, 1).cluster(&blobs(1_000, 2, 1));
    assert_digest("device 2-d blobs", &run, 0xc96f_1732_7fea_c13e);
    assert_trace_digest("device 2-d blobs", &run, 0xae87_bd50_2c01_644c);
}

/// Coincident points: every row of `skin_bridge(300, 1)` three times, at
/// indices `i`, `i + 300` and `i + 600`, so the copies share a cell but
/// are not slot neighbours when the grid is first built, plus a `±0.0`
/// pair that compares equal under `==` but not bitwise: the `-0.0` row
/// moves to `+0.0` on the first pass while its twin stays. The digests
/// were recorded on the engine that computed every point's `sin`/`cos`,
/// cell key and update walk once per point, so an engine that shares
/// those between coincident points must reproduce them.
#[test]
fn coincident_points_bits_are_pinned() {
    let base = skin_bridge(300, 1);
    let mut coords = Vec::with_capacity((3 * 300 + 2) * 3);
    for _ in 0..3 {
        coords.extend_from_slice(base.coords());
    }
    coords.extend([0.0, 0.5, 0.5, -0.0, 0.5, 0.5]);
    let data = Dataset::from_coords(coords, 3);
    let single = engine(0.05, Backend::Host, 2, 1).cluster(&data);
    assert_digest("coincident Skin bridge", &single, 0x623a_ae16_e81f_9da2);
    assert_trace_digest("coincident Skin bridge", &single, 0xa99c_7cb5_7653_5fcc);
    let sharded = engine(0.05, Backend::Host, 2, 3).cluster(&data);
    assert_digest(
        "coincident Skin bridge on 3 shards",
        &sharded,
        0x168f_9477_51a9_d44f,
    );
    assert_trace_digest(
        "coincident Skin bridge on 3 shards",
        &sharded,
        0xa334_5b48_3e08_7f97,
    );
}
