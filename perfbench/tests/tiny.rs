//! The benchmark at a tiny scale: every metric is emitted with a unit, the
//! output checks pass on every workload, and a planted mismatch fails them.

use std::path::PathBuf;

use alecto_perfbench::redrive::redrive_approx;
use alecto_perfbench::spans::{Layer, Tracer};
use alecto_perfbench::workloads::{self, Kind, Scale};
use alecto_perfbench::{run, Checks, Options, Outcome, DEFAULT_SEED, HELD_OUT_SEED};

const END_TO_END: [&str; 4] = ["mrec_per_s", "setup_s", "peak_rss_mb", "fail_frac"];

const PER_LAYER: [&str; 32] = [
    "traces.gen_ns_per_rec",
    "traceio.decode_ns_per_rec",
    "traceio.bytes_per_rec",
    "cpu.core_ns_per_rec",
    "cpu.controller_ns_per_rec",
    "selectors.allocate_ns_per_call",
    "selectors.select_ns_per_call",
    "prefetch.train_ns_per_call",
    "memsys.demand_ns_per_call",
    "memsys.prefetch_issue_ns_per_call",
    "memsys.feedback_ns_per_rec",
    "cpu.step_ns_per_rec",
    "cpu.sched_ns_per_rec",
    "cpu_s",
    "harness.parallel_eff",
    "memsys.l1_misses",
    "memsys.l2_misses",
    "memsys.l3_misses",
    "memsys.mshr_merges",
    "memsys.mshr_stall_cycles",
    "memsys.dram_accesses",
    "memsys.dram_queue_cycles",
    "cpu.controller.candidates",
    "cpu.controller.issued",
    "prefetch.training_occurrences",
    "prefetch.table_misses",
    "prefetch.useful_frac",
    "cpu.records",
    "cpu.instructions",
    "trace.overhead_frac",
    "trace.unattributed_frac",
    "trace.clock_read_ns",
];

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create the work dir");
    dir
}

fn tiny(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let dir = work_dir(&format!("{}-{seed}-{trace}", kind.name()));
    let opts = Options { kind, seed, seconds: 0.0, trace, scale: Scale::TINY, work_dir: dir };
    run(&opts).expect("the tiny run completes")
}

#[test]
fn every_metric_is_emitted_with_a_unit_and_every_check_passes() {
    for kind in Kind::ALL {
        let out = tiny(kind, DEFAULT_SEED, true);
        let names: Vec<&str> = out.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", kind.name());
        let names: Vec<&str> = out.per_layer.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER, "{}", kind.name());
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.failures);
        assert_eq!(out.end_to_end[3].value, 0.0, "fail_frac on {}", kind.name());
        assert!(out.end_to_end[0].value > 0.0, "mrec_per_s on {}", kind.name());
    }
}

#[test]
fn counts_and_digests_repeat_exactly_and_follow_the_seed() {
    let counts = |out: &Outcome| -> Vec<f64> {
        out.per_layer.iter().filter(|m| m.unit == "count").map(|m| m.value).collect()
    };
    let a = tiny(Kind::MemStream, 7, true);
    let b = tiny(Kind::MemStream, 7, true);
    assert_eq!(a.digest, b.digest);
    assert_eq!(counts(&a), counts(&b));
    let held_out = tiny(Kind::MemStream, HELD_OUT_SEED, false);
    assert_ne!(a.digest, held_out.digest, "the seed must reach the generators");
}

#[test]
fn a_planted_mismatch_between_traced_and_untraced_raises_fail_frac() {
    let dir = work_dir("planted");
    let prep = workloads::prepare(Kind::MemStream, DEFAULT_SEED, Scale::TINY, &dir).unwrap();
    let untraced = workloads::run_pass(&prep).reports;
    let mut traced: Vec<_> = prep
        .cells
        .iter()
        .map(|cell| {
            let mut tracer = Tracer::new(0.0);
            redrive_approx(
                &prep.config,
                cell.algorithm,
                prep.composite,
                &cell.sources,
                Layer::Gen,
                &mut tracer,
            )
            .report
        })
        .collect();
    let attempted = prep.cells.len() as u64;

    let mut checks = Checks::default();
    checks.compare(&prep, &untraced, &traced, "traced re-drive differs");
    assert_eq!(checks.fail_frac(attempted), 0.0, "the re-drive reproduces every cell");

    traced[3].cores[0].cycles += 1;
    let mut checks = Checks::default();
    checks.compare(&prep, &untraced, &traced, "traced re-drive differs");
    assert_eq!(checks.failed(), 1);
    assert!(checks.fail_frac(attempted) > 0.0);
}

#[test]
fn replay_recordings_carry_the_seed() {
    let dir = work_dir("stamped");
    let seed = 42;
    let prep = workloads::prepare(Kind::ResidentReplay, seed, Scale::TINY, &dir).unwrap();
    for name in Kind::ResidentReplay.benchmarks() {
        let reader = traceio::TraceReader::open(&dir.join(format!("{name}.altr"))).unwrap();
        assert_eq!(reader.header().seed, seed, "{name}");
    }
    assert!(prep.recorded_bytes > 0);
    assert!(prep.cells.iter().all(|c| c.generators.is_some()));
}
