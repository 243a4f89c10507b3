//! Property-based tests of the simulated device's primitives and memory
//! model.

use std::sync::Arc;

// `BlockRunner` is the trait the shared fake implements as `crate::BlockRunner`
use egg_gpu_sim::{grid_for, primitives, BlockRunner, Device, DeviceConfig};
use proptest::prelude::*;

#[path = "support/scoped_runner.rs"]
mod scoped_runner;
use scoped_runner::ScopedRunner;

fn device() -> Device {
    Device::new(DeviceConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn inclusive_scan_equals_prefix_sum(values in prop::collection::vec(0u64..1000, 0..1500)) {
        let d = device();
        let n = values.len();
        let input = d.alloc_from_slice(&values);
        let output = d.alloc::<u64>(n.max(1));
        primitives::inclusive_scan(&d, &input, &output, n);
        let mut acc = 0u64;
        let expected: Vec<u64> = values.iter().map(|&v| { acc += v; acc }).collect();
        prop_assert_eq!(&output.to_vec()[..n], &expected[..]);
    }

    #[test]
    fn exclusive_scan_shifts_inclusive(values in prop::collection::vec(0u64..1000, 1..800)) {
        let d = device();
        let n = values.len();
        let input = d.alloc_from_slice(&values);
        let output = d.alloc::<u64>(n);
        primitives::exclusive_scan(&d, &input, &output, n);
        let got = output.to_vec();
        prop_assert_eq!(got[0], 0);
        let mut acc = 0u64;
        for i in 1..n {
            acc += values[i - 1];
            prop_assert_eq!(got[i], acc);
        }
    }

    #[test]
    fn reduce_equals_sum(values in prop::collection::vec(0u64..10_000, 0..1200)) {
        let d = device();
        let input = d.alloc_from_slice(&values);
        let total: u64 = primitives::reduce_sum(&d, &input, values.len());
        prop_assert_eq!(total, values.iter().sum::<u64>());
    }

    #[test]
    fn compact_selects_flagged_indices(flags in prop::collection::vec(0u64..2, 0..900)) {
        let d = device();
        let n = flags.len();
        let input = d.alloc_from_slice(&flags);
        let out = d.alloc::<u64>(n.max(1));
        let count = primitives::compact_indices(&d, &input, &out, n);
        let expected: Vec<u64> = flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f != 0)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(count, expected.len());
        prop_assert_eq!(&out.to_vec()[..count], &expected[..]);
    }

    #[test]
    fn word_roundtrip_f64(bits in any::<u64>()) {
        use egg_gpu_sim::DeviceWord;
        let x = f64::from_bits(bits);
        prop_assert_eq!(f64::from_bits(DeviceWord::to_bits(x)).to_bits(), x.to_bits());
    }

    #[test]
    fn atomic_increments_count_exactly(n in 1usize..20_000) {
        let d = device();
        let counter = d.alloc::<u64>(1);
        d.launch("count", grid_for(n, 128), 128, |t| {
            if t.global_id() < n {
                counter.atomic_inc(0);
            }
        });
        prop_assert_eq!(counter.load(0), n as u64);
    }
}

#[test]
fn parallel_atomic_adds_are_exact_for_integers() {
    // with real host threads driving the blocks, the CAS-loop atomics must
    // still account for every increment
    let d = Device::with_runner(DeviceConfig::default(), Arc::new(ScopedRunner(4)));
    let counter = d.alloc::<u64>(1);
    let n = 100_000;
    d.launch("hammer", grid_for(n, 128), 128, |t| {
        if t.global_id() < n {
            counter.atomic_add(0, 3);
        }
    });
    assert_eq!(counter.load(0), 3 * n as u64);
}

#[test]
fn scan_handles_exact_block_multiples() {
    // 256 is the internal scan block size; check the boundaries around it
    let d = device();
    for n in [255usize, 256, 257, 511, 512, 513, 1024] {
        let values: Vec<u64> = (0..n as u64).collect();
        let input = d.alloc_from_slice(&values);
        let output = d.alloc::<u64>(n);
        primitives::inclusive_scan(&d, &input, &output, n);
        let got = output.to_vec();
        assert_eq!(got[n - 1], (n as u64 - 1) * n as u64 / 2, "n = {n}");
    }
}
