//! The fuzzing driver.
//!
//! ```text
//! graphiti-fuzz run    [--seed N] [--budget N] [--out DIR] [--no-refinement]
//! graphiti-fuzz shrink FILE [--seed N]
//! graphiti-fuzz triage FILE...
//! ```
//!
//! * `run` — generate `--budget` random well-formed programs from
//!   `--seed`, run every case through the metamorphic oracles (panics are
//!   caught and triaged, never fatal), minimise each *distinct* failure
//!   with the delta-debugging shrinker, and — with `--out` — write the
//!   minimised reproducers as `.gsl` regression cases. Exits non-zero iff
//!   any failure survived.
//! * `shrink` — minimise one failing `.gsl` case and print the result.
//! * `triage` — replay `.gsl` files and group their failures by
//!   fingerprint.

use graphiti_frontend::{parse_program, print_program, Program};
use graphiti_fuzz::gen::gen_program;
use graphiti_fuzz::oracle::{check_program, OracleOpts};
use graphiti_fuzz::{corpus, shrink, triage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::exit;

/// Derives the per-case RNG stream from the base seed (splitmix-style
/// constant keeps neighbouring cases decorrelated).
fn case_seed(base: u64, case: u64) -> u64 {
    base ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The full per-case check: deterministic in `seed`, panics converted to
/// crashes. Returns the failure identity (fingerprint, detail) if any.
fn check_once(p: &Program, seed: u64, opts: &OracleOpts) -> Option<(String, String)> {
    let result = triage::catching(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        check_program(p, &mut rng, opts)
    });
    match result {
        Ok(Ok(())) => None,
        Ok(Err(f)) => Some((f.fingerprint(), f.to_string())),
        Err(c) => Some((c.fingerprint(), format!("panic at {}: {}", c.location, c.message))),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: graphiti-fuzz run [--seed N] [--budget N] [--out DIR] [--no-refinement]\n\
         \x20      graphiti-fuzz shrink FILE [--seed N]\n\
         \x20      graphiti-fuzz triage FILE..."
    );
    exit(2)
}

fn parse_u64(it: &mut std::vec::IntoIter<String>, flag: &str) -> u64 {
    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("graphiti-fuzz: {flag} needs a non-negative integer");
        exit(2)
    })
}

fn load_case(path: &str) -> Program {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("graphiti-fuzz: cannot read `{path}`: {e}");
        exit(2)
    });
    parse_program(&text).unwrap_or_else(|e| {
        eprintln!("graphiti-fuzz: `{path}` does not parse: {e}");
        exit(2)
    })
}

fn cmd_run(args: Vec<String>) {
    let mut seed = 42u64;
    let mut budget = 200u64;
    let mut out: Option<PathBuf> = None;
    let mut refinement = true;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_u64(&mut it, "--seed"),
            "--budget" => budget = parse_u64(&mut it, "--budget"),
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--no-refinement" => refinement = false,
            _ => usage(),
        }
    }

    // The flight recorder runs for the whole campaign: instrumented sites
    // (simulator runs, rewrite applications, refinement bound hits) leave
    // a trail, each failure's reproducer carries the ring's tail, and a
    // panic dumps the whole ring to the working directory.
    graphiti_obs::flight::enable();
    graphiti_obs::flight::install_panic_hook("graphiti-flight.jsonl");

    let mut table = triage::Triage::new();
    let mut saved = Vec::new();
    for case in 0..budget {
        let s = case_seed(seed, case);
        let p = gen_program(&mut StdRng::seed_from_u64(s));
        // Oracle 4 explores a product automaton per rewrite application;
        // running it on a quarter of the cases keeps a 500-case budget
        // interactive while still covering hundreds of obligations.
        let opts = OracleOpts { refinement: refinement && case % 4 == 0 };
        graphiti_obs::flight::record("fuzz.case", || format!("case {case} seed {s}"));
        let Some((fp, detail)) = check_once(&p, s, &opts) else { continue };
        // Capture the ring's tail now: the shrinker is about to replay
        // the case dozens of times and would bury the original trail.
        let flight_tail = graphiti_obs::flight::tail_lines(16);
        let fresh = table.record(fp.clone(), detail.clone(), s);
        if !fresh {
            continue;
        }
        eprintln!("case {case} (seed {s}): {detail}");
        // Minimise the first representative of each distinct failure.
        let mut still =
            |cand: &Program| check_once(cand, s, &opts).map(|(f, _)| f) == Some(fp.clone());
        let min = shrink::shrink(&p, &mut still);
        if let Some(dir) = &out {
            match corpus::save_with_events(dir, &fp, &detail, &flight_tail, &min) {
                Ok(path) => {
                    eprintln!("  minimised reproducer: {}", path.display());
                    saved.push(path);
                }
                Err(e) => eprintln!("  cannot save reproducer: {e}"),
            }
        } else {
            eprintln!("  minimised reproducer:\n{}", print_program(&min));
        }
    }

    println!(
        "fuzzed {budget} cases from seed {seed}: {} failures in {} distinct buckets",
        table.total(),
        table.distinct()
    );
    if table.distinct() > 0 {
        println!("\n{}", table.report());
        exit(1);
    }
}

fn cmd_shrink(args: Vec<String>) {
    let mut seed = 42u64;
    let mut file = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_u64(&mut it, "--seed"),
            other if !other.starts_with("--") => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let p = load_case(&file);
    let opts = OracleOpts::default();
    let Some((fp, detail)) = check_once(&p, seed, &opts) else {
        println!("`{file}` passes all oracles (seed {seed}); nothing to shrink");
        return;
    };
    eprintln!("failing as {fp}: {detail}");
    let mut still =
        |cand: &Program| check_once(cand, seed, &opts).map(|(f, _)| f) == Some(fp.clone());
    let min = shrink::shrink(&p, &mut still);
    println!("# fingerprint: {fp}\n{}", print_program(&min));
    exit(1);
}

fn cmd_triage(files: Vec<String>) {
    if files.is_empty() {
        usage();
    }
    let opts = OracleOpts::default();
    let mut table = triage::Triage::new();
    for (i, f) in files.iter().enumerate() {
        let p = load_case(f);
        if let Some((fp, detail)) = check_once(&p, 42, &opts) {
            table.record(fp, format!("{f}: {detail}"), i as u64);
        }
    }
    println!(
        "{} of {} cases fail, {} distinct buckets",
        table.total(),
        files.len(),
        table.distinct()
    );
    if table.distinct() > 0 {
        println!("\n{}", table.report());
        exit(1);
    }
}

fn main() {
    triage::install_hook();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "shrink" => cmd_shrink(args),
        "triage" => cmd_triage(args),
        _ => usage(),
    }
}
