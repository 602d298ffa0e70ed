//! Regenerates every table and figure of the paper's evaluation into
//! `--out` (default `results/`): `table1`–`table4`, `litmus_figs`,
//! `fig9`, `fig10`, `energy` and `ablation`, each a `.txt` file.
//!
//! Every cell the nine artifacts read is simulated once, at the one
//! `--scale` and `--seed`, across `--jobs` threads (see
//! `sa_bench::reproduce`). `--suite`/`--only` narrow Table IV and
//! Figures 9–10; `--only` also replaces the energy table's five
//! benchmarks. `--engine` runs every cell on another engine, which must
//! write the same bytes. The files are written before anything is
//! printed; stdout then names each file and the simulation's wall time.
//!
//! Usage: `reproduce [--scale N] [--seed N] [--jobs N] [--out DIR]
//! [--suite parallel|spec|all] [--only NAME] [--engine MODE]`

use std::path::{Path, PathBuf};
use std::time::Instant;

use sa_bench::cli::{self, Common, Spec};
use sa_bench::reproduce::{Matrix, Scope, ARTIFACTS};

const SPEC: Spec = Spec {
    default_out: Some("results"),
    ..Spec::new(
        "reproduce",
        "every paper table and figure, from one deduplicated cell matrix",
        &[
            Common::Scale,
            Common::Seed,
            Common::Suite,
            Common::Only,
            Common::Jobs,
            Common::Engine,
            Common::Out,
        ],
    )
};

fn main() {
    let opts = cli::parse(&SPEC).opts;
    let scope = Scope::new(&opts).unwrap_or_else(|e| cli::usage_error(&SPEC, &e));
    let out = Path::new(opts.out.as_deref().expect("spec supplies a default --out"));
    std::fs::create_dir_all(out).unwrap_or_else(|e| fail(out, e));

    let start = Instant::now();
    let matrix = Matrix::simulate(scope.cells(), opts.jobs, |c| scope.simulate(c));
    let seconds = start.elapsed().as_secs_f64();

    let written: Vec<PathBuf> = ARTIFACTS
        .iter()
        .map(|a| {
            let path = out.join(format!("{}.txt", a.name));
            std::fs::write(&path, a.render(&scope, &matrix)).unwrap_or_else(|e| fail(&path, e));
            path
        })
        .collect();
    for path in &written {
        println!("wrote {}", path.display());
    }
    println!(
        "{} distinct cells (scale {}, seed {}) simulated in {seconds:.1} s on {} threads",
        matrix.cells().len(),
        scope.scale,
        scope.seed,
        opts.jobs
    );
}

fn fail(path: &Path, e: std::io::Error) -> ! {
    eprintln!("reproduce: writing {}: {e}", path.display());
    std::process::exit(1);
}
