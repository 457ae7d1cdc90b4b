//! Per-task payloads executed by the worker threads.

use memtree_tree::{NodeId, TaskTree};

/// What a worker actually does for a task.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// Do nothing — pure scheduling-overhead measurement.
    Noop,
    /// Sleep `nanos_per_time_unit · t_i` nanoseconds (capped at
    /// `max_nanos`), modelling compute time without burning CPU.
    Sleep {
        /// Nanoseconds per model time unit.
        nanos_per_time_unit: f64,
        /// Hard cap per task, nanoseconds.
        max_nanos: u64,
    },
    /// Allocate and touch a buffer of `bytes_per_output_unit · f_i` bytes
    /// (capped), then free it — exercises the allocator under the
    /// scheduler's memory envelope.
    AllocTouch {
        /// Bytes allocated per output-size unit.
        bytes_per_output_unit: f64,
        /// Hard cap per task, bytes.
        max_bytes: usize,
    },
    /// An IO-bound out-of-core front: `nanos_per_time_unit · t_i`
    /// nanoseconds of simulated IO waiting (capped), split into `chunks`
    /// wait points. On the thread-backed platforms each chunk is a plain
    /// sleep; on [`AsyncPlatform`](crate::AsyncPlatform) each chunk is an
    /// awaited timer with a cooperative yield between chunks
    /// ([`Workload::run_shard_async`]), so the waiting task occupies no
    /// executor thread — the regime the async backend exists for.
    IoBound {
        /// Nanoseconds of simulated IO per model time unit.
        nanos_per_time_unit: f64,
        /// Hard cap per task, nanoseconds.
        max_nanos: u64,
        /// Number of IO wait points the payload is split into (≥ 1).
        chunks: u32,
    },
    /// Fault injection for chaos tests: panic when running task `node`
    /// (an id of the executed tree as the caller numbers it: the task's
    /// [`TaskTree::label`]), killing the worker mid-run. The
    /// executor and any sharded coordinator above it must surface a clean
    /// error instead of deadlocking.
    FailAt {
        /// Index of the task whose payload panics.
        node: u32,
    },
}

impl Workload {
    /// A fast default for tests: sleep 20 µs per time unit, max 2 ms.
    pub fn quick() -> Self {
        Workload::Sleep {
            nanos_per_time_unit: 20_000.0,
            max_nanos: 2_000_000,
        }
    }

    /// A fast IO-bound default for tests: 20 µs of simulated IO per time
    /// unit (max 2 ms), split into 4 wait points.
    pub fn quick_io() -> Self {
        Workload::IoBound {
            nanos_per_time_unit: 20_000.0,
            max_nanos: 2_000_000,
            chunks: 4,
        }
    }

    /// Runs the payload for task `i` on a single processor.
    pub fn run(&self, tree: &TaskTree, i: NodeId) {
        self.run_shard(tree, i, 0, 1);
    }

    /// Runs shard `shard` of task `i`'s payload split `of` ways — the
    /// intra-task parallelism unit executed by one gang member. Shards
    /// partition the payload evenly (each is a `1/of` slice of the sleep
    /// duration or the touched buffer), so a full gang of `of`
    /// members realises the linear speedup the moldable engine predicts.
    pub fn run_shard(&self, tree: &TaskTree, i: NodeId, shard: u32, of: u32) {
        debug_assert!(shard < of, "shard index out of range");
        let of64 = of as u64;
        match *self {
            Workload::Noop => {}
            Workload::Sleep {
                nanos_per_time_unit,
                max_nanos,
            } => {
                let nanos = ((tree.time(i) * nanos_per_time_unit) as u64).min(max_nanos) / of64;
                if nanos > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(nanos));
                }
            }
            Workload::AllocTouch {
                bytes_per_output_unit,
                max_bytes,
            } => {
                let bytes = ((tree.output(i) as f64 * bytes_per_output_unit) as usize)
                    .clamp(1, max_bytes.max(1));
                // Each shard allocates and touches its slice of the buffer.
                let bytes = (bytes / of as usize).max(1);
                let mut buf = vec![0u8; bytes];
                // Touch one byte per page so the allocation is real.
                let mut k = 0;
                while k < buf.len() {
                    buf[k] = buf[k].wrapping_add(1);
                    k += 4096;
                }
                std::hint::black_box(&buf);
            }
            Workload::IoBound {
                nanos_per_time_unit,
                max_nanos,
                chunks,
            } => {
                // The synchronous interpretation: the same total wait as
                // Sleep, in `chunks` slices — a thread-backed platform
                // blocks a worker for the whole IO wait, which is exactly
                // the cost the async backend avoids.
                let nanos = ((tree.time(i) * nanos_per_time_unit) as u64).min(max_nanos) / of64;
                let slice = nanos / u64::from(chunks.max(1));
                if slice > 0 {
                    for _ in 0..chunks.max(1) {
                        std::thread::sleep(std::time::Duration::from_nanos(slice));
                    }
                }
            }
            Workload::FailAt { node } => {
                if tree.label(i).0 == node {
                    panic!("injected workload fault at task {node}");
                }
            }
        }
    }

    /// The async interpretation of [`Workload::run_shard`], polled by the
    /// [`AsyncPlatform`](crate::AsyncPlatform) executor. Timed payloads
    /// (`Sleep`, `IoBound`) await `minitok` timers instead of blocking, so
    /// a waiting task releases its executor thread; the compute-shaped
    /// payload (`AllocTouch`) runs inline in the poll — they are
    /// CPU work, and blocking an executor thread is their honest cost.
    pub async fn run_shard_async(&self, tree: &TaskTree, i: NodeId, shard: u32, of: u32) {
        debug_assert!(shard < of, "shard index out of range");
        match *self {
            Workload::Sleep {
                nanos_per_time_unit,
                max_nanos,
            } => {
                let nanos =
                    ((tree.time(i) * nanos_per_time_unit) as u64).min(max_nanos) / u64::from(of);
                if nanos > 0 {
                    minitok::time::sleep(std::time::Duration::from_nanos(nanos)).await;
                }
            }
            Workload::IoBound {
                nanos_per_time_unit,
                max_nanos,
                chunks,
            } => {
                let nanos =
                    ((tree.time(i) * nanos_per_time_unit) as u64).min(max_nanos) / u64::from(of);
                let chunks = chunks.max(1);
                let slice = nanos / u64::from(chunks);
                for _ in 0..chunks {
                    if slice > 0 {
                        minitok::time::sleep(std::time::Duration::from_nanos(slice)).await;
                    }
                    // The cooperative point between IO waits: hand the
                    // executor thread back even when the slice rounds to 0.
                    minitok::yield_now().await;
                }
            }
            // Noop, AllocTouch and FailAt behave exactly as in the
            // synchronous regime (FailAt panics inside the poll; the
            // executor catches it and the platform surfaces a clean error).
            _ => self.run_shard(tree, i, shard, of),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{TaskSpec, TaskTree};

    fn tree() -> TaskTree {
        TaskTree::from_parents(&[None], &[TaskSpec::new(0, 100, 2.0)]).unwrap()
    }

    #[test]
    fn sleep_respects_cap() {
        let t = tree();
        let w = Workload::Sleep {
            nanos_per_time_unit: 1e12,
            max_nanos: 1_000_000,
        };
        let start = std::time::Instant::now();
        w.run(&t, memtree_tree::NodeId(0));
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }

    #[test]
    fn all_workloads_run() {
        let t = tree();
        for w in [
            Workload::Noop,
            Workload::quick(),
            Workload::AllocTouch {
                bytes_per_output_unit: 16.0,
                max_bytes: 1 << 16,
            },
            Workload::quick_io(),
            Workload::FailAt { node: 999 }, // fault targets another task
        ] {
            w.run(&t, memtree_tree::NodeId(0));
            for shard in 0..4 {
                w.run_shard(&t, memtree_tree::NodeId(0), shard, 4);
            }
            // The async interpretation completes for every variant too.
            minitok::block_on(w.run_shard_async(&t, memtree_tree::NodeId(0), 0, 1));
        }
    }

    #[test]
    #[should_panic(expected = "injected workload fault")]
    fn fail_at_panics_on_its_target() {
        Workload::FailAt { node: 0 }.run(&tree(), memtree_tree::NodeId(0));
    }

    /// On a renumbered tree `FailAt` targets the caller's node: it panics
    /// on the layout id labelled `k` and nowhere else.
    #[test]
    fn fail_at_names_caller_ids_on_a_renumbered_tree() {
        let caller = memtree_gen::synthetic::paper_tree(30, 4);
        let layout = caller
            .renumbered(memtree_tree::traverse::postorder(&caller))
            .unwrap();
        let k = 7;
        let panics = |i: memtree_tree::NodeId| {
            let run = || Workload::FailAt { node: k }.run(&layout, i);
            std::panic::catch_unwind(run).is_err()
        };
        let hit: Vec<_> = layout.nodes().filter(|&i| panics(i)).collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(layout.label(hit[0]).0, k);
        assert_ne!(hit[0].0, k, "the layout moved node {k}");
    }

    #[test]
    fn shards_split_the_sleep_evenly() {
        let t = tree();
        let w = Workload::Sleep {
            nanos_per_time_unit: 1e12,
            max_nanos: 8_000_000,
        };
        // One shard of 8 sleeps ~1 ms, not the full 8 ms.
        let start = std::time::Instant::now();
        w.run_shard(&t, memtree_tree::NodeId(0), 0, 8);
        let one = start.elapsed();
        assert!(one < std::time::Duration::from_millis(6), "got {one:?}");
    }
}
