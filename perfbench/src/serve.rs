//! The `serve` workload's library side: the seeded request stream, the
//! store pre-fill, the closed-loop client, the byte check against
//! `fpa_harness::respond`, and the traced in-process replay.

use crate::build::{self, Counts};
use crate::report::cells;
use crate::trace::Tracer;
use fpa_fuzz::gen::{generate, GenConfig};
use fpa_harness::artifact::{decode_suite, encode_suite, suite_key, ArtifactStore, Key};
use fpa_harness::cell::{CellId, CellMode, CellSpec, WidthPreset};
use fpa_harness::compiler::{Scheme, SuiteArtifacts};
use fpa_harness::json::Json;
use fpa_harness::pipeline::CompiledWorkload;
use fpa_partition::{CostParams, PartitionStats};
use fpa_store::Outcome;
use fpa_testutil::Rng;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One request in every this many is a program generated fresh from the
/// seed (a store miss); the rest draw from the checked-in corpus.
const FRESH_ONE_IN: u64 = 64;

/// Stream positions the traced run replays in process.
pub const REPLAY: u64 = 2000;

/// The request pool: every checked-in corpus program (`fuzz/corpus` and
/// `fuzz/corpus/coverage`), in sorted path order.
pub fn pool(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for dir in ["fuzz/corpus", "fuzz/corpus/coverage"] {
        let dir = root.join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "zc"))
            .collect();
        paths.sort();
        for p in paths {
            out.push(std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?);
        }
    }
    if out.is_empty() {
        return Err("empty corpus".into());
    }
    Ok(out)
}

/// The deterministic request stream: request `k` depends only on the
/// seed and `k`.
pub struct Stream {
    pub pool: Vec<String>,
    pub seed: u64,
}

impl Stream {
    pub fn request(&self, k: u64) -> Json {
        let mut rng = Rng::new(fpa_fuzz::driver::case_seed(self.seed, k as u32));
        let text = if rng.below(FRESH_ONE_IN) == 0 {
            generate(&mut Rng::new(rng.next_u64()), &GenConfig::default()).render()
        } else {
            self.pool[rng.index(self.pool.len())].clone()
        };
        let mut r = Json::obj();
        r.set("id", k);
        match rng.below(10) {
            0..=3 => r.set("op", "compile"),
            4..=5 => r
                .set("op", "run")
                .set("scheme", "advanced")
                .set("width", "4-way"),
            6..=7 => r
                .set("op", "run")
                .set("scheme", "advanced")
                .set("width", "8-way"),
            _ => r.set("op", "lint"),
        };
        r.set("source", text);
        r
    }
}

/// Compiles every pool program into the artifact store at `dir`.
pub fn prefill(dir: &Path, pool: &[String]) -> Result<(), String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    for src in pool {
        store
            .suite(src, &CostParams::default())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One answered request, timed at the client.
pub struct Served {
    pub id: u64,
    pub line: String,
    /// Send and receive times, in ns since the window's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub client: u32,
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
    Ok((s, r))
}

fn call(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
    w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let mut resp = String::new();
    if r.read_line(&mut resp).map_err(|e| e.to_string())? == 0 {
        return Err("daemon closed the connection".into());
    }
    resp.truncate(resp.trim_end().len());
    Ok(resp)
}

/// Opens every connection first (set-up), then runs `clients` closed-loop
/// clients over stream positions `0..requests`: each claims the next
/// position, sends it, and waits for the reply before claiming another.
/// Returns the served requests by id, the window's wall seconds and its
/// start.
pub fn load(
    addr: &str,
    stream: &Stream,
    requests: u64,
    clients: usize,
) -> Result<(Vec<Served>, f64, Instant), String> {
    let conns = (0..clients)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(ci, (mut w, mut r))| {
                let next = &next;
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::SeqCst);
                        if id >= requests {
                            break;
                        }
                        let mut line = stream.request(id).render_compact();
                        line.push('\n');
                        let t0 = Instant::now();
                        let resp = call(&mut w, &mut r, &line)?;
                        let t1 = Instant::now();
                        got.push(Served {
                            id,
                            line: resp,
                            start_ns: ns(t0),
                            end_ns: ns(t1),
                            client: ci as u32,
                        });
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|s| s.id);
    Ok((all, wall, epoch))
}

/// The daemon's store counters, through its `stats` op.
pub fn daemon_stats(addr: &str) -> Result<Json, String> {
    let (mut w, mut r) = connect(addr)?;
    let line = call(&mut w, &mut r, "{\"id\":0,\"op\":\"stats\"}\n")?;
    Json::parse(&line).map_err(|e| e.to_string())
}

/// Recomputes every served response with `fpa_harness::respond` (two
/// threads, an in-process store opened on `store_dir`) and compares
/// bytes. Returns, per served request in order, whether it matched and
/// how long `respond` took in seconds.
pub fn verify(
    stream: &Stream,
    served: &[Served],
    store_dir: &Path,
) -> Result<Vec<(bool, f64)>, String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string())?;
    fpa_harness::set_ambient(Some(std::sync::Arc::new(store)));
    let out: Vec<Mutex<(bool, f64)>> = served.iter().map(|_| Mutex::new((false, 0.0))).collect();
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                let Some(sv) = served.get(i) else { break };
                let req = stream.request(sv.id);
                let t = Instant::now();
                let expected = fpa_harness::respond(&req).render_compact();
                let secs = t.elapsed().as_secs_f64();
                *out[i].lock().expect("verify slot") = (expected == sv.line, secs);
            });
        }
    });
    fpa_harness::set_ambient(None);
    Ok(out
        .into_iter()
        .map(|m| m.into_inner().expect("verify slot"))
        .collect())
}

/// Store outcomes a sequential replay of `ids` must see against a store
/// pre-filled with the pool: the first touch of a pool program is a
/// disk hit, of any other program a miss, and every later touch a memory
/// hit. Programs are told apart by their store key, as the store does.
/// Returns (memory hits, disk hits, misses).
pub fn predicted_outcomes(stream: &Stream, ids: impl Iterator<Item = u64>) -> (u64, u64, u64) {
    let params = CostParams::default();
    let pool: HashSet<Key> = stream.pool.iter().map(|s| suite_key(s, &params)).collect();
    let mut seen = HashSet::new();
    let (mut mem, mut disk, mut miss) = (0, 0, 0);
    for id in ids {
        let req = stream.request(id);
        let key = suite_key(
            req.get("source").and_then(Json::as_str).unwrap_or_default(),
            &params,
        );
        if !seen.insert(key) {
            mem += 1;
        } else if pool.contains(&key) {
            disk += 1;
        } else {
            miss += 1;
        }
    }
    (mem, disk, miss)
}

// ---- Traced replay -----------------------------------------------------

/// Store-layer measurements of the traced replay.
#[derive(Debug, Default)]
pub struct StoreTimes {
    pub mem_hit: Vec<f64>,
    pub disk_hit: Vec<f64>,
    pub miss: Vec<f64>,
    pub bytes_written: u64,
}

/// `ArtifactStore::suite`, rebuilt: the store lookup, the traced compile
/// and `encode_suite` on a miss, `decode_suite` on a hit.
fn store_suite(
    t: &mut Tracer,
    c: &mut Counts,
    st: &mut StoreTimes,
    store: &ArtifactStore,
    src: &str,
) -> Result<SuiteArtifacts, String> {
    let params = CostParams::default();
    let start = Instant::now();
    let (suite, outcome) = t.span("store.suite", |t| {
        let mut computed = None;
        let (bytes, outcome) = store
            .raw()
            .get_or_compute(suite_key(src, &params), || {
                let suite = t.span("build", |t| build::suite(t, c, src, &params))?;
                let payload = t.span("artifact.encode", |_| encode_suite(&suite));
                computed = Some(suite);
                Ok::<_, fpa_harness::Error>(payload)
            })
            .map_err(|e| e.to_string())?;
        if let Some(suite) = computed {
            st.bytes_written += bytes.len() as u64;
            return Ok((suite, Outcome::Miss));
        }
        let suite = t
            .span("artifact.decode", |_| decode_suite(&bytes))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((suite, outcome))
    })?;
    let secs = start.elapsed().as_secs_f64();
    match outcome {
        Outcome::HitMem | Outcome::Coalesced => st.mem_hit.push(secs),
        Outcome::HitDisk => st.disk_hit.push(secs),
        Outcome::Miss => st.miss.push(secs),
    }
    Ok(suite)
}

fn stats_json(s: &PartitionStats) -> Json {
    let mut o = Json::obj();
    o.set("fp_weight", s.fp_weight)
        .set("int_weight", s.int_weight)
        .set("copy_weight", s.copy_weight)
        .set("static_insts", s.static_insts)
        .set("static_copies", s.static_copies)
        .set("fp_fraction", s.fp_fraction());
    o
}

/// One response of `fpa_harness::respond`, rebuilt from the store,
/// simulator and linter calls for the request shapes the stream sends.
fn respond_traced(
    t: &mut Tracer,
    c: &mut Counts,
    st: &mut StoreTimes,
    store: &ArtifactStore,
    req: &Json,
) -> Result<Json, String> {
    let field = |k: &str| req.get(k).and_then(Json::as_str).unwrap_or_default();
    let op = field("op");
    let suite = store_suite(t, c, st, store, field("source"))?;
    let w = CompiledWorkload::from_suite("r0", suite);
    let mut o = Json::obj();
    o.set("id", req.get("id").cloned().unwrap_or(Json::Null));
    o.set("op", op);
    o.set("ok", true);
    match op {
        "compile" => {
            o.set("golden_exit", w.golden_exit)
                .set("golden_output", w.golden_output.as_str());
            let mut sizes = Json::obj();
            sizes
                .set("conventional", w.static_sizes.0)
                .set("basic", w.static_sizes.1)
                .set("advanced", w.static_sizes.2)
                .set("optimal", w.static_sizes.3);
            o.set("static_sizes", sizes);
            let mut parts = Json::obj();
            parts
                .set("basic", stats_json(&w.basic_stats))
                .set("advanced", stats_json(&w.advanced_stats))
                .set("optimal", stats_json(&w.optimal_stats));
            o.set("partitions", parts);
        }
        "run" => {
            let width: WidthPreset = field("width").parse()?;
            let name = match width {
                WidthPreset::FourWay => "sim.timing4",
                WidthPreset::EightWay => "sim.timing8",
            };
            let spec = CellSpec::new(
                CellId::new("r0", Scheme::Advanced, width),
                CellMode::Timing,
                fpa_harness::serve::DEFAULT_FUEL,
            );
            let r = cells(t, c, name, std::slice::from_ref(&w), &[spec])?;
            let tr = r[0].payload.timing().expect("timing cell");
            o.set("scheme", "advanced")
                .set("width", width.label())
                .set("cycles", tr.cycles)
                .set("retired", tr.retired);
        }
        "lint" => {
            let mut total = 0usize;
            let mut rows = Vec::new();
            for (scheme, prog, module, assignment) in w.lint_views() {
                let findings = t.span("lint", |_| {
                    fpa_analysis::lint(prog, Some(module), Some(assignment))
                });
                c.lint_binaries += 1;
                c.lint_findings += findings.len() as u64;
                total += findings.len();
                let mut row = Json::obj();
                row.set("scheme", scheme.label())
                    .set("insts", prog.static_size())
                    .set(
                        "findings",
                        findings
                            .iter()
                            .map(|f| Json::from(f.to_string()))
                            .collect::<Vec<Json>>(),
                    );
                rows.push(row);
            }
            o.set("clean", total == 0)
                .set("findings", total)
                .set("rows", rows);
        }
        other => return Err(format!("the stream sends no `{other}` op")),
    }
    Ok(o)
}

/// Replays stream positions `0..n` in process, sequentially, through the
/// rebuilt `respond`, with a fresh store opened on `store_dir`. Every
/// request gets a `serve.request` span carrying its id. Returns the
/// response lines.
pub fn replay_traced(
    t: &mut Tracer,
    c: &mut Counts,
    st: &mut StoreTimes,
    stream: &Stream,
    n: u64,
    store_dir: &Path,
) -> Result<Vec<String>, String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string())?;
    t.span("serve", |t| {
        (0..n)
            .map(|id| {
                let req = stream.request(id);
                t.span_for("serve.request", Some(id), |t| {
                    respond_traced(t, c, st, &store, &req).map(|j| j.render_compact())
                })
            })
            .collect()
    })
}
