//! `perfbench` — the library side of the repository benchmark.
//!
//! `perfbench/run.py` is the entry point: it builds this binary and the
//! shipped `fpa-report`, `fpa-fuzz` and `fpa-serve`, times the shipped
//! binaries from outside for the end-to-end metrics, and calls the
//! subcommands below for what needs the library:
//!
//! ```text
//! perfbench quality --set report|corpus
//! perfbench prefill --store DIR
//! perfbench load --addr A --seed N --requests R --verify-store DIR
//!                [--trace DIR --replay-store DIR]
//! perfbench trace-report --expected STDOUT --trace DIR
//! perfbench trace-fuzz --expected REPORT --trace DIR
//! ```
//!
//! Every subcommand prints one JSON object on stdout and exits non-zero
//! on any failure or output mismatch.

mod build;
mod fuzz;
mod report;
mod serve;
mod trace;

use build::Counts;
use fpa_harness::compiler::Compiler;
use fpa_harness::json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{coverage_pct, median, Tracer};

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut m = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
            m.insert(key.to_string(), v.clone());
        }
        Ok(Args(m))
    }

    fn get(&self, k: &str) -> Result<&str, String> {
        self.0
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn opt(&self, k: &str) -> Option<&str> {
        self.0.get(k).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.get(k)?
            .parse()
            .map_err(|_| format!("--{k}: not a number"))
    }

    fn path(&self, k: &str) -> Result<PathBuf, String> {
        self.get(k).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!(
            "usage: perfbench <quality|prefill|load|trace-report|trace-fuzz> [--key value]..."
        );
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|a| match cmd.as_str() {
        "quality" => quality(&a),
        "prefill" => serve::pool(Path::new("."))
            .and_then(|p| serve::prefill(&a.path("store")?, &p))
            .map(|()| Json::obj()),
        "load" => load(&a),
        "trace-report" => trace_report(&a),
        "trace-fuzz" => trace_fuzz(&a),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(j) => {
            println!("{}", j.render_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::from(1)
        }
    }
}

fn quality(a: &Args) -> Result<Json, String> {
    let programs: Vec<(String, String)> = match a.get("set")? {
        "report" => fpa_workloads::integer()
            .into_iter()
            .map(|w| (w.name, w.source))
            .collect(),
        "corpus" => serve::pool(Path::new("."))?
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("p{i}"), s))
            .collect(),
        other => return Err(format!("unknown program set `{other}`")),
    };
    report::quality(&programs)
}

/// Writes the Chrome trace and the self-time table under `dir`, and
/// prints the table to stderr.
fn write_trace(dir: &Path, tracers: &[&Tracer]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let table = trace::self_time_table(tracers);
    eprint!("{table}");
    std::fs::write(dir.join("trace.json"), trace::chrome_trace(tracers))
        .map_err(|e| e.to_string())?;
    std::fs::write(dir.join("selftime.txt"), table).map_err(|e| e.to_string())
}

/// The per-layer metrics every traced run reports. Layers a workload
/// does not call read zero.
fn layer_metrics(t: &Tracer, c: &Counts, root: &str) -> Json {
    let ms = |name: &str| t.total(name) * 1e3;
    let rate = |n: u64, secs: f64| {
        if secs > 0.0 {
            n as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let timing_s = t.total("sim.timing4") + t.total("sim.timing8") + t.total("sim.cosim");
    let mut o = Json::obj();
    o.set("frontend.parse_ms", ms("frontend.parse"))
        .set("ir.opt_ms", ms("ir.opt"))
        .set("ir.interp_ms", ms("ir.interp"))
        .set("ir.interp_insts", c.interp_insts)
        .set(
            "ir.interp_minst_per_s",
            rate(c.interp_insts, t.total("ir.interp")),
        )
        .set("partition.basic_ms", ms("partition.basic"))
        .set("partition.advanced_ms", ms("partition.advanced"))
        .set("partition.optimal_ms", ms("partition.optimal"))
        .set("codegen.ms", ms("codegen"))
        .set("codegen.static_insts", c.static_insts)
        .set("sim.timing4_ms", ms("sim.timing4"))
        .set("sim.timing8_ms", ms("sim.timing8"))
        .set("sim.functional_ms", ms("sim.functional"))
        .set("sim.cosim_ms", ms("sim.cosim"))
        .set("sim.timing_mcyc_per_s", rate(c.sim_cycles, timing_s))
        .set(
            "sim.functional_minst_per_s",
            rate(c.functional_retired, t.total("sim.functional")),
        )
        .set("sim.cycles", c.sim_cycles)
        .set("sim.retired", c.sim_retired)
        .set("sim.cells", c.sim_cells)
        .set("lint.ms", ms("lint"))
        .set("lint.binaries", c.lint_binaries)
        .set("lint.findings", c.lint_findings)
        .set("engine.build_ms", ms("engine.build"))
        .set("engine.matrix_ms", ms("engine.matrix"))
        .set("experiments.optgap_ms", ms("experiments.optgap"))
        .set("experiments.fp_ms", ms("experiments.fp"))
        .set("fuzz.gen_us", median(&t.durations("fuzz.gen")) * 1e6)
        .set("fuzz.oracle_ms", median(&t.durations("fuzz.oracle")) * 1e3)
        .set(
            "fuzz.coverage_us",
            median(&t.durations("fuzz.coverage")) * 1e6,
        )
        .set("trace.coverage_pct", coverage_pct(t, root))
        .set("trace.traced_wall_s", t.total(root));
    o
}

/// Appends `more`'s fields to `o`.
fn extend(o: &mut Json, more: Json) {
    if let Json::Obj(pairs) = more {
        for (k, v) in pairs {
            o.set(&k, v);
        }
    }
}

fn zero_fields(keys: &[&str]) -> Json {
    let mut o = Json::obj();
    for k in keys {
        o.set(k, 0u64);
    }
    o
}

const FUZZ_ONLY: [&str; 2] = ["fuzz.novel_ratio", "fuzz.features"];
const SERVE_ONLY: [&str; 13] = [
    "store.mem_hit_us",
    "store.disk_hit_us",
    "store.miss_ms",
    "store.encode_us",
    "store.decode_us",
    "store.bytes_written",
    "store.hit_ratio",
    "store.coalesced",
    "serve.respond_compile_us",
    "serve.respond_run_us",
    "serve.respond_lint_us",
    "serve.overhead_us",
    "serve.errors",
];

fn trace_report(a: &Args) -> Result<Json, String> {
    let expected = std::fs::read_to_string(a.path("expected")?).map_err(|e| e.to_string())?;
    let mut t = Tracer::new(Instant::now(), 0);
    let mut c = Counts::default();
    let traced = report::traced(&mut t, &mut c)?;
    if traced.stdout != expected {
        return Err("traced report stdout differs from the untraced fpa-report stdout".into());
    }
    for (name, suite) in &traced.builds {
        let w = fpa_workloads::by_name(name).ok_or("unknown workload")?;
        let untraced = Compiler::new(&w.source)
            .build_suite()
            .map_err(|e| e.to_string())?;
        if !build::same_suite(suite, &untraced) {
            return Err(format!(
                "{name}: traced build differs from Compiler::build_suite"
            ));
        }
    }
    write_trace(&a.path("trace")?, &[&t])?;
    let mut o = layer_metrics(&t, &c, "report");
    extend(&mut o, zero_fields(&FUZZ_ONLY));
    extend(&mut o, zero_fields(&SERVE_ONLY));
    Ok(o)
}

/// Traces the campaign whose untraced report is `--expected`; its case
/// count and base seed come from that report.
fn trace_fuzz(a: &Args) -> Result<Json, String> {
    let expected = std::fs::read_to_string(a.path("expected")?).map_err(|e| e.to_string())?;
    let report = Json::parse(&expected).map_err(|e| e.to_string())?;
    let cases = report
        .get("cases")
        .and_then(Json::as_u64)
        .ok_or("campaign report has no `cases`")?;
    let seed = report
        .get("base_seed")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .ok_or("campaign report has no hex `base_seed`")?;
    let mut t = Tracer::new(Instant::now(), 0);
    let mut c = Counts::default();
    let traced = fuzz::traced(&mut t, &mut c, cases as u32, seed)?;
    if traced.report != expected {
        return Err("traced campaign report differs from the untraced fpa-fuzz report".into());
    }
    for (src, suite) in &traced.suites {
        let untraced = Compiler::new(src)
            .build_suite()
            .map_err(|e| e.to_string())?;
        if !build::same_suite(suite, &untraced) {
            return Err("a traced case build differs from Compiler::build_suite".into());
        }
    }
    write_trace(&a.path("trace")?, &[&t])?;
    let cases = traced.suites.len().max(1) as f64;
    let mut o = layer_metrics(&t, &c, "fuzz");
    o.set("fuzz.novel_ratio", traced.novel as f64 / cases)
        .set("fuzz.features", traced.features);
    extend(&mut o, zero_fields(&SERVE_ONLY));
    Ok(o)
}

/// Percentile by nearest rank on a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives the daemon at `--addr` with stream positions `0..--requests`,
/// checks every response, and with `--trace` also replays the first
/// `serve::REPLAY` positions in process through the rebuilt `respond`.
fn load(a: &Args) -> Result<Json, String> {
    let addr = a.get("addr")?;
    let stream = serve::Stream {
        pool: serve::pool(Path::new("."))?,
        seed: a.num("seed")?,
    };
    let (served, wall, epoch) = serve::load(addr, &stream, a.num("requests")?, 2)?;
    let daemon = serve::daemon_stats(addr)?;
    let checks = serve::verify(&stream, &served, &a.path("verify-store")?)?;

    let n = served.len();
    let mismatched = checks.iter().filter(|(ok, _)| !ok).count();
    let errors = served
        .iter()
        .filter(|s| s.line.contains("\"ok\":false"))
        .count();
    // A failed request counts as over any latency limit.
    let mut lat: Vec<f64> = served
        .iter()
        .zip(&checks)
        .map(|(s, (ok, _))| {
            if *ok {
                (s.end_ns - s.start_ns) as f64 * 1e-6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let p99 = percentile(&lat, 0.99);
    let beyond = lat.iter().filter(|&&x| x > p99).count();

    // Exact store counts: the daemon's tallies must match what the
    // served request set implies (coalesced waits count as memory hits).
    let (mem, disk, miss) = serve::predicted_outcomes(&stream, served.iter().map(|s| s.id));
    let get = |k: &str| daemon.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let store_exact = get("hits_disk") == disk
        && get("misses") == miss
        && get("hits_mem").saturating_add(get("coalesced")) == mem;

    let mut o = Json::obj();
    o.set("requests", n)
        .set("failed", mismatched + errors)
        .set("mismatched", mismatched)
        .set("errors", errors)
        .set("wall_s", wall)
        .set("rps", (n - mismatched) as f64 / wall)
        .set("p50_ms", percentile(&lat, 0.50))
        .set("p99_ms", p99)
        .set("beyond_p99", beyond)
        .set("store_exact", store_exact)
        .set("mem_hits", mem)
        .set("disk_hits", disk)
        .set("misses", miss)
        .set("daemon_store", daemon.clone());
    let Some(dir) = a.opt("trace") else {
        return Ok(o);
    };

    // Traced: per-op `respond` times and the client-side overhead come
    // from the check above; the layers come from the in-process replay.
    let op_of = |s: &serve::Served| {
        let req = stream.request(s.id);
        req.get("op")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let per_op = |op: &str| {
        let v: Vec<f64> = served
            .iter()
            .zip(&checks)
            .filter(|(s, _)| op_of(s) == op)
            .map(|(_, (_, secs))| *secs)
            .collect();
        median(&v) * 1e6
    };
    let overhead: Vec<f64> = served
        .iter()
        .zip(&checks)
        .map(|(s, (_, secs))| (s.end_ns - s.start_ns) as f64 * 1e-9 - secs)
        .collect();

    let replay = serve::REPLAY;
    let mut t = Tracer::new(epoch, 0);
    let mut c = Counts::default();
    let mut st = serve::StoreTimes::default();
    let lines = serve::replay_traced(
        &mut t,
        &mut c,
        &mut st,
        &stream,
        replay,
        &a.path("replay-store")?,
    )?;
    // The window served ids 0..n in order; each served line already
    // matched `respond`.
    for (id, line) in lines.iter().enumerate().take(n) {
        if *line != served[id].line {
            return Err(format!(
                "request {id}: traced replay response differs from respond()"
            ));
        }
    }
    let (rmem, rdisk, rmiss) = serve::predicted_outcomes(&stream, 0..replay);
    if (
        st.mem_hit.len() as u64,
        st.disk_hit.len() as u64,
        st.miss.len() as u64,
    ) != (rmem, rdisk, rmiss)
    {
        return Err("replay store outcomes differ from the stream's prediction".into());
    }
    // Client-side spans of the measured window, one per request.
    let mut clients: Vec<Tracer> = (1..=2).map(|i| Tracer::new(epoch, i)).collect();
    for s in &served {
        let t0 = epoch + std::time::Duration::from_nanos(s.start_ns);
        let t1 = epoch + std::time::Duration::from_nanos(s.end_ns);
        clients[s.client as usize].record("serve.client_request", Some(s.id), t0, t1);
    }
    write_trace(Path::new(dir), &[&t, &clients[0], &clients[1]])?;

    let requests = (rmem + rdisk + rmiss).max(1) as f64;
    let mut m = layer_metrics(&t, &c, "serve");
    extend(&mut m, zero_fields(&FUZZ_ONLY));
    m.set("store.mem_hit_us", median(&st.mem_hit) * 1e6)
        .set("store.disk_hit_us", median(&st.disk_hit) * 1e6)
        .set("store.miss_ms", median(&st.miss) * 1e3)
        .set(
            "store.encode_us",
            median(&t.durations("artifact.encode")) * 1e6,
        )
        .set(
            "store.decode_us",
            median(&t.durations("artifact.decode")) * 1e6,
        )
        .set("store.bytes_written", st.bytes_written)
        .set("store.hit_ratio", (rmem + rdisk) as f64 / requests)
        .set(
            "store.coalesced",
            daemon.get("coalesced").and_then(Json::as_u64).unwrap_or(0),
        )
        .set("serve.respond_compile_us", per_op("compile"))
        .set("serve.respond_run_us", per_op("run"))
        .set("serve.respond_lint_us", per_op("lint"))
        .set("serve.overhead_us", median(&overhead) * 1e6)
        .set("serve.errors", errors)
        .set(
            "serve.replay_respond_s",
            checks
                .iter()
                .take(replay as usize)
                .map(|(_, s)| s)
                .sum::<f64>(),
        );
    o.set("layers", m);
    Ok(o)
}
