use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
use topick_core::{PrecisionConfig, QMatrix, QVector};
use topick_model::InstanceSampler;

fn main() {
    let (thr, thr03) = (
        topick_bench::calibrate::THR_TOPICK,
        topick_bench::calibrate::THR_TOPICK_03,
    );
    println!("thr={thr:.3e} thr03={thr03:.3e}");
    let pc = PrecisionConfig::paper();
    let dim = 64;
    let inst = InstanceSampler::realistic(320, dim).sample_keys(5);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), dim, pc).unwrap();
    for (name, mode, t) in [
        ("baseline", AccelMode::Baseline, 0.5),
        ("est-only", AccelMode::EstimateOnly, thr),
        ("ooo", AccelMode::OutOfOrder, thr),
        ("ooo03", AccelMode::OutOfOrder, thr03),
        ("blocking", AccelMode::Blocking, thr),
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, t).unwrap());
        let r = accel.attention_cost(&q, &keys).unwrap();
        println!(
            "{name:>9}: cycles={:>6} kept={:>4} chunks={:?} dram_reads={} meanlat={:.0} hits={} misses={}",
            r.cycles, r.prune.kept, r.prune.chunk_fetches, r.dram_stats.reads,
            r.dram_stats.mean_latency(), r.dram_stats.row_hits, r.dram_stats.row_misses
        );
    }
}
