//! Synthesis explorer: run HPF-CEGIS and iterative CEGIS side by side on a
//! few original instructions and compare how many multisets each had to try
//! (the mechanism behind the paper's Figure 3 speed-up).
//!
//! Run with `cargo run --release --example synthesis_explorer`.

use sepe_isa::Opcode;
use sepe_synth::hpf::HpfCegis;
use sepe_synth::iterative::IterativeCegis;
use sepe_synth::library::Library;
use sepe_synth::spec::Spec;
use sepe_synth::SynthesisConfig;

fn main() {
    let width = 8;
    let config = SynthesisConfig {
        width,
        multiset_size: 3,
        programs_wanted: 3,
        min_components: 3,
        max_cegis_iterations: 8,
        synth_conflict_limit: Some(50_000),
        verify_conflict_limit: Some(50_000),
        time_limit: Some(std::time::Duration::from_secs(30)),
    };
    let library = Library::standard();
    println!(
        "library: {} components ({} NIC / {} DIC / {} CIC)\n",
        library.len(),
        library.count_class(sepe_synth::ComponentClass::Nic),
        library.count_class(sepe_synth::ComponentClass::Dic),
        library.count_class(sepe_synth::ComponentClass::Cic),
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "case", "hpf tried", "iter tried", "hpf time", "iter time", "speed-up"
    );
    for opcode in [Opcode::Sub, Opcode::Add, Opcode::And, Opcode::Or] {
        let spec = Spec::for_opcode(opcode, width);
        let mut hpf = HpfCegis::new(config.clone(), library.clone());
        let hpf_result = hpf.synthesize(&spec);
        let iterative = IterativeCegis::new(config.clone(), library.clone());
        let iter_result = iterative.synthesize(&spec);
        println!(
            "{:<8} {:>12} {:>12} {:>9.2?} {:>9.2?} {:>8.2}x",
            spec.name,
            hpf_result.multisets_tried,
            iter_result.multisets_tried,
            hpf_result.duration,
            iter_result.duration,
            iter_result.duration.as_secs_f64() / hpf_result.duration.as_secs_f64().max(1e-9),
        );
        if let Some(p) = hpf_result.best() {
            println!(
                "  first HPF program uses: {}",
                p.component_names.join(" + ")
            );
        }
    }
}
