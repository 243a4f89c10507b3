//! A test fake of `BlockRunner`: fresh scoped threads for every launch,
//! each claiming one block at a time, so every block runs in a range (and
//! a counter batch) of its own and the blocks interleave across threads.
//! Shared by the crate's unit tests and its integration tests.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::BlockRunner;

/// Runs each launch on this many scoped threads.
pub struct ScopedRunner(pub usize);

impl BlockRunner for ScopedRunner {
    fn run(&self, tasks: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.0 {
                scope.spawn(|| loop {
                    let block = next.fetch_add(1, Ordering::Relaxed);
                    if block >= tasks {
                        break;
                    }
                    body(block..block + 1);
                });
            }
        });
    }
}
