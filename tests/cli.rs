//! End-to-end tests of the `graphiti-cli` binary (the Fig. 1 tool
//! interface): dot in, rewritten dot out.

use std::io::Write;
use std::process::{Command, Stdio};

const SEQUENTIAL_LOOP: &str = r#"
digraph gcd_loop {
  entry [type="entry"];
  exit  [type="exit"];
  mux   [type="mux"];
  body  [type="pure" func="comp(parf(id,op:nez),comp(parf(comp(parf(snd,op:mod),dup),op:mod),dup))"];
  split [type="split"];
  br    [type="branch"];
  fork  [type="fork" ways="2"];
  init  [type="init" initial="false"];
  entry -> mux  [to="f"];
  mux   -> body [from="out" to="in"];
  body  -> split [from="out" to="in"];
  split -> br   [from="out0" to="in"];
  split -> fork [from="out1" to="in"];
  fork  -> br   [from="out0" to="cond"];
  fork  -> init [from="out1" to="in"];
  init  -> mux  [from="out" to="cond"];
  br    -> mux  [from="t" to="t"];
  br    -> exit [from="f"];
}
"#;

fn run_cli(stdin: &str, extra_args: &[&str]) -> (String, String, bool) {
    let exe = env!("CARGO_BIN_EXE_graphiti-cli");
    let mut child = Command::new(exe)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The CLI may exit before reading stdin (e.g. on a bad flag), which
    // surfaces here as a broken pipe — not a test failure.
    let _ = child.stdin.as_mut().expect("stdin").write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("cli completes");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cli_transforms_a_marked_loop() {
    let (stdout, stderr, ok) = run_cli(SEQUENTIAL_LOOP, &["--tags", "4", "--stats"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("type=\"tagger\""), "{stdout}");
    assert!(stdout.contains("type=\"merge\""));
    assert!(!stdout.contains("type=\"mux\""));
    assert!(stderr.contains("transformed = true"), "{stderr}");
    // The printed output parses back as a valid circuit.
    let g = graphiti::prelude::parse_dot(&stdout).expect("output parses");
    g.validate().expect("output circuit complete");
}

#[test]
fn cli_auto_detects_the_single_loop() {
    let (stdout, _, ok) = run_cli(SEQUENTIAL_LOOP, &[]);
    assert!(ok);
    assert!(stdout.contains("tagger"));
}

#[test]
fn cli_reports_refusals_and_leaves_circuit_unchanged() {
    // Replace the pure body by a store-containing region: pure, but a store
    // hangs off the loop... simplest impure case: swap the Pure for a
    // region the pipeline cannot reduce — a Merge inside the body.
    let impure = SEQUENTIAL_LOOP.replace(
        r#"body  [type="pure" func="comp(parf(id,op:nez),comp(parf(comp(parf(snd,op:mod),dup),op:mod),dup))"];"#,
        r#"body  [type="pure" func="comp(parf(id,op:nez),comp(parf(comp(parf(snd,op:mod),dup),op:mod),dup))"];
           sidefork [type="fork" ways="2"];
           st   [type="store" mem="arr"];
           ksink [type="sink"];
           zero [type="constant" value="i:0"];"#,
    );
    // Rewire: mux.out -> sidefork -> (body, store path).
    let impure = impure
        .replace(
            r#"mux   -> body [from="out" to="in"];"#,
            r#"mux   -> sidefork [from="out" to="in"];
               sidefork -> body [from="out0" to="in"];
               sidefork -> zero [from="out1" to="ctrl"];
               zero -> st [from="out" to="addr"];
               st -> ksink [from="done" to="in"];"#,
        )
        .replace(
            r#"br    -> exit [from="f"];"#,
            r#"br    -> exit [from="f"];
               datasrc [type="constant" value="i:1"];
               dfork [type="fork" ways="2"];
               dsink [type="sink"];
               entry2 [type="entry"];
               entry2 -> dfork [to="in"];
               dfork -> datasrc [from="out0" to="ctrl"];
               dfork -> dsink [from="out1" to="in"];
               datasrc -> st [from="out" to="data"];"#,
        );
    let (stdout, stderr, ok) = run_cli(&impure, &["--mark", "init"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("refused"), "{stderr}");
    // Unchanged: still a mux, no tagger.
    assert!(stdout.contains("type=\"mux\""));
    assert!(!stdout.contains("type=\"tagger\""));
}

const GCD_PROGRAM: &str = r#"
program gcd
array arr1 = [i:12, i:35]
array arr2 = [i:18, i:21]
array result = zeros int 2

kernel for i in 0..2 ooo tags 4 {
  state a = arr1[i]
  state b = arr2[i]
  update a = b
  update b = a % b
  while nez(b)
  store result[i] = a
}
"#;

#[test]
fn cli_compile_mode_emits_optimized_dot() {
    let (stdout, stderr, ok) = run_cli(GCD_PROGRAM, &["--compile", "--stats"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("// kernel gcd_k0"));
    assert!(stdout.contains("type=\"tagger\""), "marked kernel was transformed: {stdout}");
    assert!(stderr.contains("transformed = true"), "{stderr}");
    // Drop the comment line; the rest parses as dot.
    let dot: String =
        stdout.lines().filter(|l| !l.starts_with("//")).collect::<Vec<_>>().join("\n");
    let g = graphiti::prelude::parse_dot(&dot).expect("output parses");
    g.validate().expect("complete circuit");
}

#[test]
fn cli_checked_deferred_discharges_in_parallel() {
    let (stdout, stderr, ok) = run_cli(SEQUENTIAL_LOOP, &["--tags", "4", "--checked"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("type=\"tagger\""), "{stdout}");
    // The body is already one Pure, but phase 3 still collapses it in one
    // oracle step, so `region-to-pure`, `loop-ooo` and `pure-expand` each
    // record an obligation. All three stop at the queue cap: the summary
    // must say "bounded", never that they hold.
    assert!(
        stderr.contains(
            "discharged 3 deferred obligations in parallel: 0 hold, 3 bounded (queue_cap 3), 0 fail"
        ),
        "{stderr}"
    );
}

#[test]
fn cli_supervises_the_deferred_check_stage() {
    let dir = std::env::temp_dir().join(format!("graphiti_cli_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let metrics_str = metrics.to_str().unwrap().to_string();
    // `--metrics-out` alone implies `--checked`: the observed run collects
    // and discharges the obligations and prints their tally.
    let (stdout, stderr, ok) = run_cli(
        SEQUENTIAL_LOOP,
        &["--tags", "4", "--deadline-ms", "600000", "--metrics-out", &metrics_str],
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("type=\"tagger\""), "{stdout}");
    // A generous deadline leaves the verdicts untouched.
    assert!(
        stderr.contains(
            "discharged 3 deferred obligations in parallel: 0 hold, 3 bounded (queue_cap 3), 0 fail"
        ),
        "{stderr}"
    );
    let doc = std::fs::read_to_string(&metrics).expect("metrics file exists");
    // Dot input runs the same supervised phases as a program.
    for stage in ["parse", "rewrite", "check"] {
        let counter = format!("\"robust.stage.{stage}.ok\"");
        assert!(doc.contains(&counter), "{stage} stage outcome counted: {doc}");
    }
    assert!(doc.contains("\"refine.visited_states\""), "checker metrics recorded: {doc}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A marked kernel with one loop-carried variable: cheap to check even in
/// a debug build.
const COUNTDOWN: &str = "
kernel for i in 0..2 ooo tags 4 {
  state a = xs[i]
  update a = a - 1
  while nez(a)
  store r[i] = a
}
";

#[test]
fn cli_checks_every_kernel_of_a_run_as_one_batch() {
    let program = format!(
        "program countdowns\narray xs = [i:3, i:2]\narray r = zeros int 2\n{COUNTDOWN}{COUNTDOWN}"
    );
    let (stdout, stderr, ok) = run_cli(&program, &["--compile", "--checked"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("// kernel countdowns_k1"), "{stdout}");
    // Both kernels' obligations are one batch with one tally line.
    assert_eq!(stderr.matches("discharged").count(), 1, "{stderr}");
    let tally = "discharged 6 deferred obligations in parallel: 0 hold, 6 bounded \
                 (queue_cap 4, closure_limit 2), 0 fail";
    assert!(stderr.contains(tally), "{stderr}");
}

/// Runs `args` with `--trace-out` on the in-order gcd program and returns
/// the names of the trace's simulated-cycle slices and the firings the
/// run reports.
fn sim_slices(dir_name: &str, args: &[&str]) -> (Vec<String>, u64) {
    use graphiti::bench::jsonin::{parse, Json};
    let dir = std::env::temp_dir().join(format!("{dir_name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let all = [&["--compile", "--trace-out", trace.to_str().unwrap()], args].concat();
    let (_, stderr, ok) = run_cli(&GCD_PROGRAM.replace(" ooo tags 4", ""), &all);
    assert!(ok, "stderr: {stderr}");
    let firings = stderr.split(" cycles, ").nth(1).and_then(|s| s.split(' ').next());
    let doc = parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
    let str_field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
    let slices = events
        .iter()
        .filter(|e| str_field(e, "ph").as_deref() == Some("X"))
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(2))
        .filter_map(|e| str_field(e, "name"))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (slices, firings.expect("the run reports its firings").parse().unwrap())
}

#[test]
fn cli_trace_out_records_every_fire_as_a_slice() {
    let (slices, firings) = sim_slices("graphiti_cli_slices", &[]);
    assert!(firings > 0);
    assert_eq!(slices.len() as u64, firings, "one simulated-cycle slice per fire");
}

#[test]
fn cli_trace_nodes_narrows_the_trace_slices() {
    let (slices, _) = sim_slices("graphiti_cli_slices_mux2", &["--trace-nodes", "mux2"]);
    assert!(!slices.is_empty(), "mux2 fires");
    assert!(slices.iter().all(|s| s == "mux2"), "{slices:?}");
}

#[test]
fn cli_deadline_cuts_off_the_checked_pipeline_with_a_stage_error() {
    // gcd's deferred check takes far longer than 1 ms, so whichever stage
    // the budget runs out in is cut off with a structured stage error.
    let (_, stderr, ok) = run_cli(GCD_PROGRAM, &["--compile", "--checked", "--deadline-ms", "1"]);
    assert!(!ok, "an overrun deadline must fail the run: {stderr}");
    assert!(stderr.contains("exceeded its deadline"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_compile_mode_rejects_bad_programs() {
    let (_, stderr, ok) = run_cli("kernel for i in {", &["--compile"]);
    assert!(!ok);
    assert!(stderr.contains("line"), "{stderr}");
}

#[test]
fn cli_vcd_out_writes_a_parsable_waveform() {
    let dir = std::env::temp_dir().join(format!("graphiti_cli_vcd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vcd = dir.join("gcd.vcd");
    let vcd_str = vcd.to_str().unwrap().to_string();
    let (_, stderr, ok) = run_cli(GCD_PROGRAM, &["--compile", "--vcd-out", &vcd_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("waveform written"), "{stderr}");
    let doc = std::fs::read_to_string(&vcd).expect("vcd file exists");
    let dump = graphiti::obs::vcd::parse(&doc).expect("dump parses");
    assert!(!dump.signals.is_empty());
    assert!(dump.change_count() > 0);
    // And vcd-check accepts its own output.
    let (stdout, stderr, ok) = run_cli("", &["vcd-check", &vcd_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("signals"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_vcd_check_rejects_garbage() {
    let (_, stderr, ok) = run_cli("this is not vcd\n#0\n1!\n", &["vcd-check"]);
    assert!(!ok);
    assert!(stderr.contains("vcd line"), "{stderr}");
}

#[test]
fn cli_explain_stalls_prints_cause_breakdown() {
    let (stdout, stderr, ok) = run_cli(GCD_PROGRAM, &["explain-stalls", "--top", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("stall attribution"), "{stdout}");
    assert!(stdout.contains("lost node-cycles:"), "{stdout}");
    assert!(stdout.contains("critical channels:"), "{stdout}");
    // Attribution mode replaces the dot output.
    assert!(!stdout.contains("digraph"), "{stdout}");
}

#[test]
fn cli_trace_nodes_narrows_the_waveform() {
    let dir = std::env::temp_dir().join(format!("graphiti_cli_tn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vcd = dir.join("narrow.vcd");
    let vcd_str = vcd.to_str().unwrap().to_string();
    let (_, stderr, ok) =
        run_cli(GCD_PROGRAM, &["--compile", "--vcd-out", &vcd_str, "--trace-nodes", "mux2"]);
    assert!(ok, "stderr: {stderr}");
    let narrow = graphiti::obs::vcd::parse(&std::fs::read_to_string(&vcd).unwrap()).unwrap();
    let (_, _, ok) = run_cli(GCD_PROGRAM, &["--compile", "--vcd-out", &vcd_str]);
    assert!(ok);
    let full = graphiti::obs::vcd::parse(&std::fs::read_to_string(&vcd).unwrap()).unwrap();
    assert!(!narrow.signals.is_empty(), "filter must keep the mux channels");
    assert!(
        narrow.signals.len() < full.signals.len(),
        "filter must drop signals: {} vs {}",
        narrow.signals.len(),
        full.signals.len()
    );
    for sig in &narrow.signals {
        assert!(sig.name.contains("mux2"), "unexpected signal {}", sig.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_trace_nodes_rejects_names_that_are_no_node() {
    let dir = std::env::temp_dir().join(format!("graphiti_cli_tn_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vcd = dir.join("never.vcd");
    let vcd_str = vcd.to_str().unwrap().to_string();
    let (_, stderr, ok) =
        run_cli(GCD_PROGRAM, &["--compile", "--vcd-out", &vcd_str, "--trace-nodes", "mux2,nosuch"]);
    assert!(!ok, "stderr: {stderr}");
    assert!(stderr.contains("no kernel has a node named `nosuch`"), "{stderr}");
    assert!(!stderr.contains("`mux2`"), "{stderr}");
    assert!(!vcd.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_trace_nodes_needs_a_waveform_or_trace_to_narrow() {
    // The list narrows only a `--vcd-out` waveform and a `--trace-out`
    // trace's simulator events, so a run that writes neither rejects it
    // instead of ignoring it.
    let dir = std::env::temp_dir().join(format!("graphiti_cli_tn_none_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gsl = dir.join("tiny.gsl");
    std::fs::write(&gsl, GCD_PROGRAM.replace(" ooo tags 4", "")).unwrap();
    let gsl = gsl.to_str().unwrap();
    for args in [
        &[gsl, "--trace-nodes", "mux2"][..],
        &["explain-stalls", gsl, "--trace-nodes", "mux2"],
        &["profile", gsl, "--trace-nodes", "mux2"],
    ] {
        let (_, stderr, ok) = run_cli("", args);
        assert!(!ok, "{args:?} must fail: {stderr}");
        assert!(
            stderr.contains("--vcd-out") && stderr.contains("--trace-out"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_vcd_out_names_each_kernel_in_the_file_name_only() {
    let dir = std::env::temp_dir().join(format!("graphiti_cli_vcd_multi_{}", std::process::id()));
    let dotted = dir.join("build.d");
    std::fs::create_dir_all(&dotted).unwrap();
    let kernel = &GCD_PROGRAM[GCD_PROGRAM.find("kernel").unwrap()..];
    let out = dotted.join("out");
    let (_, stderr, ok) = run_cli(
        &format!("{GCD_PROGRAM}{kernel}"),
        &["--compile", "--vcd-out", out.to_str().unwrap()],
    );
    assert!(ok, "stderr: {stderr}");
    for k in ["gcd_k0", "gcd_k1"] {
        let vcd = dotted.join(format!("out.{k}"));
        let (stdout, stderr, ok) = run_cli("", &["vcd-check", vcd.to_str().unwrap()]);
        assert!(ok, "{k}: {stderr}");
        assert!(stdout.contains("signals"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_vcd_out_requires_compile_mode() {
    let (_, stderr, ok) = run_cli(SEQUENTIAL_LOOP, &["--vcd-out", "/tmp/x.vcd"]);
    assert!(!ok);
    assert!(stderr.contains("compile mode"), "{stderr}");
}

#[test]
fn cli_rejects_garbage_input() {
    let (_, stderr, ok) = run_cli("this is not dot", &[]);
    assert!(!ok);
    assert!(stderr.contains("parse error") || stderr.contains("expected"), "{stderr}");
}

#[test]
fn cli_unknown_flag_fails() {
    let (_, stderr, ok) = run_cli(SEQUENTIAL_LOOP, &["--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn cli_mark_must_exist() {
    let (_, stderr, ok) = run_cli(SEQUENTIAL_LOOP, &["--mark", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("no such node"));
}

#[test]
fn cli_malformed_gsl_fails_cleanly_without_backtrace() {
    // The crash-proofing contract: hostile program text gets a pointed
    // diagnostic and a non-zero exit, never a panic message.
    let cases = [
        "program p\nkernel for i in 0..1 {\n  store ]a[ = 1\n}\n",
        "program p\narray a = zeros int 99999999999999\n",
        "program p\nkernel for i in 0..1 ooo tags 4294967295 {\n  while nez(1)\n}\n",
    ];
    for src in cases {
        let (_, stderr, ok) = run_cli(src, &["--compile"]);
        assert!(!ok, "must exit non-zero for {src:?}");
        assert!(!stderr.contains("panicked"), "no backtrace for {src:?}: {stderr}");
        assert!(stderr.contains("line "), "diagnostic names the line: {stderr}");
    }
}

#[test]
fn cli_compiles_multi_site_stores_through_a_store_queue() {
    // Two store sites on one array used to be rejected outright
    // (StoreRace); they now compile through an in-order store queue.
    let src = "program race\narray ia0 = [i:-5]\narray out0 = [i:0]\n\n\
               kernel for i in 0..1 {\n  state lim = 1\n  update lim = 1\n\
               \x20 do store out0[0] = ia0[0]\n  while (1 < 1)\n  store out0[i] = 1\n}\n";
    let (_, stderr, ok) = run_cli(src, &["--compile"]);
    assert!(ok, "multi-site stores compile via the store queue: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_rejects_unorderable_store_race_with_site_diagnostics() {
    // The guard still fires when the racing array is also loaded outside
    // its store statements (here: in the update expression) — the store
    // queue cannot order that load. The diagnostic names the sites.
    let src = "program race\narray out0 = [i:0]\n\n\
               kernel for i in 0..1 {\n  state lim = 1\n  update lim = out0[0]\n\
               \x20 do store out0[0] = 1\n  while (1 < 1)\n  store out0[i] = 1\n}\n";
    let (_, stderr, ok) = run_cli(src, &["--compile"]);
    assert!(!ok, "unorderable store race must be rejected");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("body store #0") && stderr.contains("epilogue store #0"),
        "diagnostic names the conflicting sites: {stderr}"
    );
}

#[test]
fn cli_profile_phase_attribution_sums_to_the_pipeline_span() {
    // A kernel without `ooo` keeps the refinement phase trivial, so the
    // whole profile runs in milliseconds even in debug builds; the
    // attribution invariant under test is the same either way.
    let program = GCD_PROGRAM.replace(" ooo tags 4", "");
    let dir = std::env::temp_dir().join(format!("graphiti_cli_prof_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gsl = dir.join("tiny.gsl");
    std::fs::write(&gsl, &program).unwrap();
    let json = dir.join("profile.json");
    let folded = dir.join("profile.folded");
    let flight = dir.join("flight.jsonl");
    let (stdout, stderr, ok) = run_cli(
        "",
        &[
            "profile",
            gsl.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
            "--flight-out",
            flight.to_str().unwrap(),
        ],
    );
    assert!(ok, "stderr: {stderr}");
    // The text table attributes every phase under the root span.
    for path in ["pipeline", "pipeline;parse", "pipeline;rewrite", "pipeline;check"] {
        assert!(stdout.contains(path), "missing row `{path}`:\n{stdout}");
    }
    // The contract: per-phase totals plus the root's self time partition
    // the root span exactly, so the printed drift must be within 1%.
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("phase self/total sum:"))
        .expect("summary line printed");
    let drift: f64 = summary
        .split("drift ")
        .nth(1)
        .and_then(|s| s.strip_suffix('%'))
        .expect("drift field")
        .parse()
        .expect("drift parses");
    assert!(drift.abs() <= 1.0, "phase attribution drifted {drift}%: {summary}");
    // Sidecar artifacts: JSON rows, folded stacks, and the flight tail.
    let json_doc = std::fs::read_to_string(&json).expect("profile JSON written");
    assert!(json_doc.contains("\"rows\""), "{json_doc}");
    assert!(json_doc.contains("pipeline;simulate"), "{json_doc}");
    let folded_doc = std::fs::read_to_string(&folded).expect("folded stacks written");
    assert!(folded_doc.lines().any(|l| l.starts_with("pipeline;")), "{folded_doc}");
    let flight_doc = std::fs::read_to_string(&flight).expect("flight dump written");
    assert!(flight_doc.contains("profile.start"), "{flight_doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_schema_prints_the_frozen_metrics_contract() {
    let (stdout, stderr, ok) = run_cli("", &["schema"]);
    assert!(ok, "stderr: {stderr}");
    // Matches the checked-in golden file byte for byte (the same contract
    // the schema-drift CI step and crates/obs/tests/schema_golden.rs pin).
    assert_eq!(stdout, include_str!("../obs/schema.json"));
}

#[test]
fn cli_vcd_check_rejects_truncated_document_cleanly() {
    let (_, stderr, ok) = run_cli("$var wire 64 ! ch0 $end\n#0\nb1011\n", &["vcd-check"]);
    assert!(!ok);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
