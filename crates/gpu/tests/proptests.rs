//! Property-based tests of the SIMT engine's accounting invariants.

use bdm_device::cache::{AccessOutcome, ShardedCache};
use bdm_device::specs::{GpuSpec, SYSTEM_A};
use bdm_gpu::engine::{GpuDevice, Kernel, LaunchConfig, ThreadCtx, ThreadId};
use bdm_gpu::mem::{DeviceAllocator, DeviceBuffer};
use bdm_math::SplitMix64;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A kernel that reads `reads_per_thread` elements starting at
/// `thread_id * stride` and adds them up, writing the sum back.
struct Gather {
    n: usize,
    stride: usize,
    reads_per_thread: usize,
    data: DeviceBuffer<f32>,
    out: DeviceBuffer<f32>,
}

impl Kernel for Gather {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let t = tid.global() as usize;
        if t >= self.out.len() {
            return;
        }
        let mut acc = 0.0f32;
        for k in 0..self.reads_per_thread {
            ctx.begin_slot();
            let idx = (t * self.stride + k) % self.n;
            acc += ctx.ld(&self.data, idx);
            ctx.flops::<f32>(1);
        }
        ctx.st(&self.out, t, acc);
    }
}

fn launch_gather(threads: usize, stride: usize, reads: usize) -> bdm_gpu::KernelCounters {
    let n = 4096;
    let mut alloc = DeviceAllocator::new();
    let data = alloc.alloc::<f32>(n);
    for i in 0..n {
        data.write(i, i as f32);
    }
    let out = alloc.alloc::<f32>(threads);
    let k = Gather {
        n,
        stride,
        reads_per_thread: reads,
        data,
        out,
    };
    let dev = GpuDevice::new(SYSTEM_A.gpu);
    let r = dev.launch(&k, LaunchConfig::for_items(threads, 128));
    // Functional check rides along: each output is the right gather sum.
    for t in 0..threads {
        let expect: f32 = (0..reads).map(|kk| ((t * stride + kk) % n) as f32).sum();
        assert_eq!(k.out.read(t), expect, "thread {t}");
    }
    r.counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter sanity for arbitrary gather shapes.
    #[test]
    fn counters_are_internally_consistent(
        threads in 1usize..512,
        stride in 1usize..64,
        reads in 1usize..16,
    ) {
        let c = launch_gather(threads, stride, reads);
        // Every thread launched is accounted (tail threads included).
        prop_assert_eq!(c.threads_run as usize, threads.div_ceil(128) * 128);
        prop_assert_eq!(c.warps_run, c.threads_run / 32);
        prop_assert_eq!(c.warps_traced, c.warps_run);
        // FLOPs: exactly one per read per active thread.
        prop_assert_eq!(c.flops_fp32 as usize, threads * reads);
        // Hits + misses = transactions; all traffic went through the L2.
        prop_assert!((c.l2_hits + c.l2_misses - c.global_transactions).abs() < 1e-9);
        // Transactions per slot bounded by the warp width and never
        // below 1 for an active slot: total ∈ [slots, slots × 32].
        let total_accesses = (threads * reads + threads) as f64; // reads + stores
        prop_assert!(c.global_transactions >= 1.0);
        prop_assert!(
            c.global_transactions <= total_accesses,
            "coalescing can merge but never multiply transactions: {} > {}",
            c.global_transactions,
            total_accesses
        );
    }

    /// Larger strides can only worsen (or keep equal) coalescing.
    #[test]
    fn stride_monotonicity(reads in 1usize..8) {
        let unit = launch_gather(256, 1, reads);
        let wide = launch_gather(256, 48, reads);
        prop_assert!(
            wide.global_transactions >= unit.global_transactions,
            "stride 48 produced fewer transactions ({}) than stride 1 ({})",
            wide.global_transactions,
            unit.global_transactions
        );
    }

    /// Determinism: identical launches give identical counters.
    #[test]
    fn launch_is_deterministic(
        threads in 1usize..300,
        stride in 1usize..32,
    ) {
        let a = launch_gather(threads, stride, 4);
        let b = launch_gather(threads, stride, 4);
        prop_assert_eq!(a, b);
    }
}

/// Atomic add from every thread: the canonical contention kernel.
struct Contend {
    total: usize,
    cells: usize,
    counters: DeviceBuffer<u32>,
}

impl Kernel for Contend {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let t = tid.global() as usize;
        if t >= self.total {
            return;
        }
        ctx.atomic_add(&self.counters, t % self.cells, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Atomics are exact regardless of how threads map onto addresses,
    /// and the serialization penalty falls as contention spreads.
    #[test]
    fn atomic_accounting(threads_pow in 6u32..10, cells in 1usize..64) {
        let threads = 1usize << threads_pow;
        let mut alloc = DeviceAllocator::new();
        let k = Contend {
            total: threads,
            cells,
            counters: alloc.alloc::<u32>(cells),
        };
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(&k, LaunchConfig::for_items(threads, 128));
        // Functional: every increment landed, distributed round-robin.
        let mut total = 0u64;
        for i in 0..cells {
            total += k.counters.read(i) as u64;
        }
        prop_assert_eq!(total, threads as u64);
        prop_assert_eq!(r.counters.atomic_ops, threads as f64);
        // With ≥ 32 distinct addresses, a warp never conflicts.
        if cells >= 32 {
            prop_assert_eq!(r.counters.atomic_serial_cycles, 0.0);
        }
        // With one address, every warp serializes its 31 extra lanes.
        if cells == 1 {
            prop_assert!(r.counters.atomic_serial_cycles > 0.0);
        }
    }
}

/// One step of a replayed lane trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    BeginSlot,
    Load(usize),
    AtomicAdd(usize),
    SharedAtomic(usize),
}

/// Replays a fixed per-thread op trace through the public `ThreadCtx`
/// API. Threads past the end of `traces` run no ops.
struct Replay {
    traces: Vec<Vec<Op>>,
    data: DeviceBuffer<u32>,
}

impl Kernel for Replay {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        for &op in self.traces.get(tid.global() as usize).into_iter().flatten() {
            match op {
                Op::BeginSlot => ctx.begin_slot(),
                Op::Load(i) => {
                    ctx.ld(&self.data, i);
                }
                Op::AtomicAdd(i) => {
                    ctx.atomic_add(&self.data, i, 1);
                }
                Op::SharedAtomic(w) => {
                    ctx.sh_atomic_add_u32(w, 1);
                }
            }
        }
    }
}

const REPLAY_WORDS: usize = 16 * 1024;
const REPLAY_SHARED_WORDS: usize = 4;

/// Seeded traces: uneven slot counts per lane, silent threads, bursts of
/// more than 255 accesses in one slot, global atomics on a few shared
/// addresses, and shared atomics on a few words.
fn random_traces(threads: usize, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed);
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    (0..threads)
        .map(|t| {
            let mut ops = Vec::new();
            if below(8) == 0 {
                return ops;
            }
            for slot in 0..below(6) {
                if slot > 0 || below(2) == 0 {
                    ops.push(Op::BeginSlot);
                }
                let accesses = if below(64) == 0 {
                    256 + below(64)
                } else {
                    below(4)
                };
                for k in 0..accesses {
                    let near = (t * 3 + slot * 97 + k) % REPLAY_WORDS;
                    ops.push(match below(8) {
                        0 => Op::AtomicAdd(below(3)),
                        1 => Op::SharedAtomic(below(REPLAY_SHARED_WORDS)),
                        2..=4 => Op::Load(below(REPLAY_WORDS)),
                        _ => Op::Load(near),
                    });
                }
            }
            ops
        })
        .collect()
}

/// Per slot key: (segments in first-touch order, atomic addresses).
type SlotMap = BTreeMap<u64, (Vec<u64>, Vec<u64>)>;

/// The reference coalescer: a `SlotMap` per warp; per batch, every warp's
/// slots sorted by (key, warp) into a fresh L2. Returns (transactions, hits,
/// misses, atomic ops, atomic serial cycles).
fn oracle(k: &Replay, spec: &GpuSpec, cfg: LaunchConfig) -> [f64; 5] {
    let line = spec.l2_line_bytes as u64;
    let capacity = spec.l2_bytes.max(line * spec.l2_ways as u64 * 16);
    let l2 = ShardedCache::new(capacity, spec.l2_ways, spec.l2_line_bytes, 16);
    let warps_per_block = cfg.block_dim.div_ceil(32) as usize;
    let resident_blocks = (spec.max_threads_per_sm / cfg.block_dim).clamp(1, 32) as usize;
    let batch_width = spec.sm_count as usize * resident_blocks * warps_per_block;
    // Every repeat of an address within a slot costs 32 serial cycles.
    let conflicts =
        |addrs: &[u64]| (addrs.len() - addrs.iter().collect::<BTreeSet<_>>().len()) as f64 * 32.0;
    let mut out = [0.0; 5];
    let mut batch: Vec<SlotMap> = Vec::new();
    let drain = |batch: &mut Vec<SlotMap>, out: &mut [f64; 5]| {
        let mut order: Vec<(u64, usize)> = Vec::new();
        for (w, slots) in batch.iter().enumerate() {
            order.extend(slots.keys().map(|&key| (key, w)));
        }
        order.sort_unstable();
        for (key, w) in order {
            for &seg in &batch[w][&key].0 {
                out[0] += 1.0;
                match l2.access(seg * line) {
                    AccessOutcome::Hit => out[1] += 1.0,
                    AccessOutcome::Miss => out[2] += 1.0,
                }
            }
        }
        batch.clear();
    };
    let block_dim = cfg.block_dim as usize;
    for warp in 0..cfg.grid_dim as usize * warps_per_block {
        let block_start = warp / warps_per_block * block_dim;
        let first = block_start + warp % warps_per_block * 32;
        let lanes = first..(first + 32).min(block_start + block_dim);
        let mut slots: SlotMap = BTreeMap::new();
        let mut shared: Vec<Vec<u64>> = Vec::new();
        for t in lanes {
            let (mut slot, mut sub, mut nth_shared) = (0u64, 0u64, 0);
            for &op in k.traces.get(t).into_iter().flatten() {
                let (i, atomic) = match op {
                    Op::BeginSlot => {
                        (slot, sub) = (slot + 1, 0);
                        continue;
                    }
                    Op::SharedAtomic(w) => {
                        if shared.len() == nth_shared {
                            shared.push(Vec::new());
                        }
                        shared[nth_shared].push(w as u64);
                        nth_shared += 1;
                        continue;
                    }
                    Op::Load(i) => (i, false),
                    Op::AtomicAdd(i) => (i, true),
                };
                let entry = slots.entry((slot << 8) | sub.min(255)).or_default();
                sub += 1;
                let addr = k.data.addr(i);
                let seg = addr / line;
                if !entry.0.contains(&seg) {
                    entry.0.push(seg);
                }
                if atomic {
                    out[3] += 1.0;
                    entry.1.push(addr);
                }
            }
        }
        for (_, atomics) in slots.values() {
            out[4] += conflicts(atomics);
        }
        for words in shared {
            out[4] += conflicts(&words);
        }
        batch.push(slots);
        if batch.len() >= batch_width {
            drain(&mut batch, &mut out);
        }
    }
    drain(&mut batch, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's merge-based coalescer and batched L2 drain produce the
    /// same transactions, in the same L2 order, and the same atomic
    /// accounting as the slot-map reference.
    #[test]
    fn coalescer_matches_slot_map_oracle(
        seed in any::<u64>(),
        block_dim in 1u32..=96,
        grid_dim in 1u32..=3,
        sm_count in 1u32..=2,
    ) {
        // A small L2 and a narrow residency window, so the launch evicts
        // and drains several batches.
        let spec = GpuSpec {
            sm_count,
            max_threads_per_sm: 64,
            l2_bytes: 4 * 1024,
            l2_ways: 2,
            ..SYSTEM_A.gpu
        };
        let cfg = LaunchConfig { grid_dim, block_dim, shared_words: REPLAY_SHARED_WORDS };
        let threads = (grid_dim * block_dim) as usize;
        let k = Replay {
            traces: random_traces(threads - threads / 16, seed),
            data: DeviceAllocator::new().alloc::<u32>(REPLAY_WORDS),
        };
        let c = GpuDevice::new(spec).launch(&k, cfg).counters;
        prop_assert_eq!(c.warps_traced, c.warps_run);
        let got = [
            c.global_transactions,
            c.l2_hits,
            c.l2_misses,
            c.atomic_ops,
            c.atomic_serial_cycles,
        ];
        prop_assert_eq!(got, oracle(&k, &spec, cfg));
    }
}
