//! Criterion microbenchmarks of the neighborhood substrates:
//! kd-tree vs uniform grid construction and radius queries, the Morton
//! sort, and the Eq. 1 force evaluation — the building blocks whose
//! relative costs drive the paper's Figs. 8/9.

use bdm_grid::{CsrGrid, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::interaction::{collision_force, MechParams};
use bdm_math::{Aabb, SplitMix64, Vec3};
use bdm_soa::AgentId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const N: usize = 20_000;
const EXTENT: f64 = 100.0;
const RADIUS: f64 = 4.0;

fn cloud(seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let xs = (0..N).map(|_| rng.uniform(0.0, EXTENT)).collect();
    let ys = (0..N).map(|_| rng.uniform(0.0, EXTENT)).collect();
    let zs = (0..N).map(|_| rng.uniform(0.0, EXTENT)).collect();
    (xs, ys, zs)
}

fn bench_build(c: &mut Criterion) {
    let (xs, ys, zs) = cloud(1);
    let space = Aabb::new(Vec3::zero(), Vec3::splat(EXTENT));
    let mut g = c.benchmark_group("build");
    g.bench_function("kdtree_serial", |b| {
        b.iter(|| black_box(KdTree::build(&xs, &ys, &zs)))
    });
    g.bench_function("unigrid_serial", |b| {
        b.iter(|| black_box(UniformGrid::build_serial(&xs, &ys, &zs, space, RADIUS)))
    });
    g.bench_function("unigrid_parallel", |b| {
        b.iter(|| black_box(UniformGrid::build_parallel(&xs, &ys, &zs, space, RADIUS)))
    });
    g.bench_function("csr_serial", |b| {
        b.iter(|| black_box(CsrGrid::build_serial(&xs, &ys, &zs, space, RADIUS)))
    });
    g.bench_function("csr_parallel", |b| {
        b.iter(|| black_box(CsrGrid::build_parallel(&xs, &ys, &zs, space, RADIUS)))
    });
    g.bench_function("csr_rebuild_serial", |b| {
        // Steady-state rebuild: buffers and scratch reused across steps,
        // the shape the simulation actually runs.
        let mut grid = CsrGrid::build_serial(&xs, &ys, &zs, space, RADIUS);
        let mut scratch = bdm_grid::CsrBuildScratch::default();
        b.iter(|| {
            grid.rebuild_serial(&xs, &ys, &zs, space, RADIUS, &mut scratch);
            black_box(grid.cell_agents().len())
        })
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let (xs, ys, zs) = cloud(2);
    let space = Aabb::new(Vec3::zero(), Vec3::splat(EXTENT));
    let tree = KdTree::build(&xs, &ys, &zs);
    let grid = UniformGrid::build_serial(&xs, &ys, &zs, space, RADIUS);
    let mut g = c.benchmark_group("radius_query_1k");
    g.bench_function("kdtree", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for i in (0..N).step_by(N / 1000) {
                let q = Vec3::new(xs[i], ys[i], zs[i]);
                tree.radius_search(q, RADIUS, Some(i as u32), &mut out);
                black_box(out.len());
            }
        })
    });
    g.bench_function("unigrid", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for i in (0..N).step_by(N / 1000) {
                let q = Vec3::new(xs[i], ys[i], zs[i]);
                grid.radius_search(&xs, &ys, &zs, q, RADIUS, Some(AgentId(i as u32)), &mut out);
                black_box(out.len());
            }
        })
    });
    let csr = CsrGrid::build_serial(&xs, &ys, &zs, space, RADIUS);
    g.bench_function("csr", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for i in (0..N).step_by(N / 1000) {
                let q = Vec3::new(xs[i], ys[i], zs[i]);
                csr.radius_search(&xs, &ys, &zs, q, RADIUS, Some(AgentId(i as u32)), &mut out);
                black_box(out.len());
            }
        })
    });
    g.finish();
}

fn bench_morton(c: &mut Criterion) {
    let (xs, ys, zs) = cloud(3);
    let space = Aabb::new(Vec3::zero(), Vec3::splat(EXTENT));
    c.bench_function("morton_sort_permutation", |b| {
        b.iter(|| {
            let keys = bdm_morton::cell_keys(&xs, &ys, &zs, &space, RADIUS);
            black_box(bdm_soa::Permutation::sorting_by_key(&keys))
        })
    });
}

fn bench_force(c: &mut Criterion) {
    let params = MechParams::<f64>::default_params();
    let mut g = c.benchmark_group("collision_force");
    for overlap in [0.1, 1.0] {
        g.bench_with_input(
            BenchmarkId::from_parameter(overlap),
            &overlap,
            |b, &overlap| {
                let p1 = Vec3::new(0.0, 0.0, 0.0);
                let p2 = Vec3::new(2.0 - overlap, 0.0, 0.0);
                b.iter(|| {
                    black_box(collision_force(
                        black_box(p1),
                        1.0,
                        black_box(p2),
                        1.0,
                        params.repulsion,
                        params.attraction,
                    ))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_morton, bench_force);
criterion_main!(benches);
