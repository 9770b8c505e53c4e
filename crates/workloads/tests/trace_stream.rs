//! Pins the generated trace streams: an FNV-1a digest of the first 20 k ops
//! of every core, for each of the 30 catalog workloads and the 8 built-in
//! scenarios (8 cores, 1/1024 scale, seed 1), drawn per op and in blocks.
//! The digests were taken from the generator before it filled blocks; any
//! change to the draw order, the pattern arithmetic or the phase and mix
//! schedules moves one of them.

use sim_types::{TraceOp, TraceSource, VAddr};
use workloads::{catalog, scenarios, Workload, WorkloadSpec};

const CORES: usize = 8;
const OPS_PER_CORE: usize = 20_000;

const GOLDEN: &[(&str, u64)] = &[
    ("cg.D", 0x6dfe9042ee4e73aa),
    ("sp.D", 0xfd9f127d9c7e8f02),
    ("bt.D", 0x11ed8c58ca0f141a),
    ("fotonik3d", 0x83badb8f13a6484e),
    ("lbm", 0xbafd9ab3df571e2a),
    ("bwaves", 0x1432c13911251c39),
    ("lu.D", 0x0f6211addf1a7db1),
    ("mcf", 0x6332c57c85fb2d5c),
    ("gcc", 0x0a7e4b76081d8be1),
    ("roms", 0xdbea048ae19694af),
    ("mg.C", 0x6a5d938f32991bd4),
    ("omnetpp", 0x6373ebc90d05335b),
    ("is.C", 0xcd1ffc16e6aeed1f),
    ("dc.B", 0x001615dbcd482deb),
    ("ua.D", 0x1a9e6c7c43215f93),
    ("xz", 0xa166c5caa08b2e2b),
    ("parest", 0x203d63603dcf943c),
    ("cactus", 0x4117fafe5620d63a),
    ("ft.C", 0xaee3ab9c7796ddbb),
    ("cam4", 0xc42b0f10f642e8d5),
    ("wrf", 0x38fef81532e3ec2d),
    ("xalanc", 0x189173b83dffafe6),
    ("imagick", 0x9d17a074cf20a612),
    ("x264", 0x26c7cfbaa4ffcd34),
    ("perlbench", 0xcbcd766975d92974),
    ("blender", 0x6a4570b1c49cb701),
    ("deepsjeng", 0x1918cb2c3e7927e1),
    ("nab", 0x80872fc8357fd61e),
    ("leela", 0x3f671b235a0e5e2a),
    ("namd", 0x4163b7413a71a839),
    ("tile-chase-drift", 0xe24e8d46621ee8f7),
    ("hot-stream-drift", 0x57a5c9b49ff102c2),
    ("tile-shrink", 0x8d1f809314299754),
    ("quiet-burst", 0xc09ae17bbbe71040),
    ("stream-chase", 0x2db6312eca9195b6),
    ("bandwidth-victim", 0x38a44077127d7ac5),
    ("quad-mix", 0x5c951a23734c8d5e),
    ("drift-duo", 0x11f6e650736f4424),
];

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold(h: &mut u64, op: &TraceOp) {
    fnv(h, u64::from(op.gap));
    fnv(h, op.addr.raw());
    fnv(h, u64::from(op.kind.is_write()));
}

fn workloads() -> Vec<&'static WorkloadSpec> {
    catalog::all()
        .iter()
        .chain(scenarios::builtin().iter().map(|s| &s.workload))
        .collect()
}

/// Digest of every core's first ops, drawn one at a time through
/// `next_op` or in `fill` blocks of `block` ops.
fn digest(spec: &WorkloadSpec, block: Option<usize>) -> u64 {
    let mut wl = Workload::build(spec, CORES, 1024, 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for core in 0..CORES {
        let src = wl.source_mut(core);
        match block {
            None => {
                for _ in 0..OPS_PER_CORE {
                    fold(&mut h, &src.next_op().unwrap());
                }
            }
            Some(block) => {
                let mut ops = vec![TraceOp::load(0, VAddr::new(0)); OPS_PER_CORE];
                for chunk in ops.chunks_mut(block) {
                    src.fill(chunk);
                }
                for op in &ops {
                    fold(&mut h, op);
                }
            }
        }
    }
    h
}

fn check(block: Option<usize>) {
    let got: Vec<(String, u64)> = workloads()
        .into_iter()
        .map(|spec| (spec.name.clone(), digest(spec, block)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), 38, "30 catalog workloads and 8 scenarios");
    assert_eq!(got.len(), GOLDEN.len(), "pinned table:\n{table}");
    for ((name, d), (gname, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *d), (*gname, *gd), "pinned table:\n{table}");
    }
}

#[test]
fn per_op_streams_match_pinned_digests() {
    check(None);
}

/// The machine's block size, so the path a run takes is the one pinned.
#[test]
fn block_streams_match_pinned_digests() {
    check(Some(64));
}
