//! `serve-mixed`: `hgp-server` over loopback, closed loop.
//!
//! Each client connection replays its own fixed script: `solve` cache hits
//! (sweep only), `near=1` topology twins (warm-started distribution
//! builds), misses (cold distribution builds), coalesce pairs (one cold
//! line sent twice, pipelined, so the second joins the first's in-flight
//! build) and `place-incremental mutate` + `resolve` pairs on a session
//! the connection opened during set-up. Session writes run beside solve
//! reads on the same event loop and pool, so a front-end or session change
//! that helps one use and costs the other shows here.
//!
//! Every op carries real solver work (about 10 ms or more), which keeps
//! the loop away from the sub-millisecond regime where scheduling noise
//! dominates. The solve classes use distinct mesh shapes so their cache
//! behaviour is fixed by the script alone: hits reuse primed 16×16 keys,
//! near twins are fresh 15×17 meshes whose only cached topology twin is
//! primed during set-up, and misses and coalesce pairs are fresh 16×17
//! meshes. Each session belongs to one connection, so every reply is a
//! pure function of the script; only whether a coalesce pair's second
//! request is served `shared` or `hit` depends on timing, and both answers
//! are bit-identical to a cold build.

use crate::layers::{self, Layers};
use crate::report::{median, quantile, same_cost, Checks, Pass};
use crate::{alloc, check, derive_seed, nproc, op_count, Config, Shape, Workload};
use hgp_core::{Mutation, ReplaceOptions, Session};
use hgp_obs::{TraceSink, NO_PARENT};
use hgp_server::{IncrOp, Request, Server, ServerConfig};
use hgp_workloads::requests::reply_field;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Instant;

/// Nominal throughput on a 2-core host (all connections together), used
/// only to size the scripts.
pub(crate) const OPS_PER_S: f64 = 60.0;
/// Untimed warm-up hits per connection during set-up.
const WARMUP: usize = 3;
const MACHINE: &str = "4x4:4,1,0";
const DEMAND: f64 = 0.05;
/// Primed exact keys the hit class draws from.
const HIT_KEYS: usize = 4;
/// Session graph: a mesh of this many rows and columns of tasks.
const SESSION_SIDE: usize = 30;
/// Tasks per set-up `mutate` line.
const ADD_BATCH: usize = 64;
/// Demand edits per session op.
const DRIFT_EDITS: usize = 4;
/// `derive_seed` sub-streams: the shared keys, then one script and one
/// session fill per connection.
const KEYS: u64 = 0x300;
const SCRIPT: u64 = 0x310;
const FILL: u64 = 0x320;

/// Op classes in latency order, with their share of every script in
/// percent. The solve shares follow the server's open-loop default mix
/// (`hgp_workloads::openloop::OpenLoopOpts::default`, recorded in
/// `BENCH_server.json`): 55% hits, 15% near twins, 20% misses and 10%
/// coalesced requests. See the README for how and why they were changed.
pub const CLASSES: [(&str, usize); 5] = [
    ("session", 25),
    ("hit", 42),
    ("near", 11),
    ("miss", 15),
    ("coalesce", 7),
];
const SESSION: usize = 0;
const HIT: usize = 1;
const NEAR: usize = 2;
const MISS: usize = 3;
const COALESCE: usize = 4;

/// One op of a connection's script: one `solve` line, a coalesce pair
/// (one `solve` line twice, pipelined) or a `mutate` and a `resolve`
/// line.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// Request lines, sent in order, one reply each.
    pub lines: Vec<String>,
}

/// Seeds every script shares: the primed hit keys and the near twin.
#[derive(Clone, Copy, Debug)]
struct Keys {
    hit: [(u64, u64); HIT_KEYS],
    twin: (u64, u64),
}

fn keys(seed: u64) -> Keys {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, KEYS));
    let mut pair = || (rng.gen::<u32>() as u64, rng.gen::<u32>() as u64);
    Keys {
        hit: std::array::from_fn(|_| pair()),
        twin: pair(),
    }
}

fn solve_line(shape: &str, graph_seed: u64, seed: u64, near: bool) -> String {
    let near = if near { " near=1" } else { "" };
    format!(
        "solve graph=gen:mesh:{shape}:{graph_seed} machine={MACHINE} demand={DEMAND} \
         seed={seed}{near} assignment=1"
    )
}

/// Per-class op counts for a script of `n` ops (largest remainder).
pub(crate) fn class_counts(n: usize) -> [usize; 5] {
    let total: usize = CLASSES.iter().map(|c| c.1).sum();
    let mut counts = CLASSES.map(|c| n * c.1 / total);
    let mut rest = n - counts.iter().sum::<usize>();
    for (i, c) in counts.iter_mut().enumerate() {
        if rest > 0 && !(n * CLASSES[i].1).is_multiple_of(total) {
            *c += 1;
            rest -= 1;
        }
    }
    counts
}

/// The fixed script of connection `conn` for `seed`: `n` ops, with
/// session ops addressed to `session`. `demands` is the session's current
/// per-task demand vector; the drift edits update it.
pub fn script(seed: u64, conn: usize, n: usize, session: u64, demands: &mut [f64]) -> Vec<Op> {
    let k = keys(seed);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SCRIPT + conn as u64));
    let mut classes: Vec<usize> = class_counts(n)
        .iter()
        .enumerate()
        .flat_map(|(c, &m)| std::iter::repeat_n(c, m))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    // fresh graph seeds: the top bits name the connection, so no two
    // connections (and no primed key, whose seeds fit in 32 bits) collide
    let mut fresh = (conn as u64 + 1) << 40;
    classes
        .into_iter()
        .map(|class| {
            fresh += 1 + rng.gen_range(0..1000u64);
            let lines = match class {
                HIT => {
                    let (g, s) = k.hit[rng.gen_range(0..HIT_KEYS)];
                    vec![solve_line("16x16", g, s, false)]
                }
                NEAR => vec![solve_line("15x17", fresh, k.twin.1, true)],
                MISS => vec![solve_line("16x17", fresh, rng.gen::<u32>() as u64, false)],
                COALESCE => {
                    let line = solve_line("16x17", fresh, rng.gen::<u32>() as u64, false);
                    vec![line.clone(), line]
                }
                _ => {
                    let mut line = format!("place-incremental mutate session={session}");
                    for _ in 0..DRIFT_EDITS {
                        let t = rng.gen_range(0..demands.len());
                        let d = (demands[t] * rng.gen_range(0.7..1.3)).clamp(0.004, 0.03);
                        demands[t] = d;
                        line.push_str(&format!(" demand={t}:{d}"));
                    }
                    vec![line, format!("place-incremental resolve session={session}")]
                }
            };
            Op { class, lines }
        })
        .collect()
}

/// The set-up lines that fill a session with a mesh of tasks, and the
/// tasks' initial demands.
fn session_fill(seed: u64, conn: usize, session: u64) -> (Vec<String>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, FILL + conn as u64));
    let n = SESSION_SIDE * SESSION_SIDE;
    let demands: Vec<f64> = (0..n).map(|_| rng.gen_range(0.008..0.02)).collect();
    let mut lines = Vec::new();
    for start in (0..n).step_by(ADD_BATCH) {
        let mut line = format!("place-incremental mutate session={session}");
        for (t, d) in demands
            .iter()
            .enumerate()
            .take(n.min(start + ADD_BATCH))
            .skip(start)
        {
            let mut nbrs = Vec::new();
            if t % SESSION_SIDE > 0 {
                nbrs.push(t - 1);
            }
            if t >= SESSION_SIDE {
                nbrs.push(t - SESSION_SIDE);
            }
            line.push_str(&format!(" add={d}"));
            for (j, u) in nbrs.into_iter().enumerate() {
                let w: f64 = rng.gen_range(0.5..2.0);
                line.push_str(&format!("{}{u}:{w}", if j == 0 { ":" } else { "," }));
            }
        }
        lines.push(line);
    }
    lines.push(format!("place-incremental resolve session={session}"));
    (lines, demands)
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(server: &Server) -> Result<Conn, String> {
        let s = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(s.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: s,
            reader,
            buf: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends every line in one write, then reads one reply per line.
    fn pipeline(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer
            .write_all(batch.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => replies.push(self.buf.trim_end().to_string()),
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        Ok(replies)
    }

    /// `call` that insists on an `ok` reply.
    fn ok(&mut self, line: &str) -> Result<String, String> {
        let reply = self.call(line)?;
        if reply.starts_with("ok") {
            Ok(reply)
        } else {
            Err(format!("{line:?} answered {reply:?}"))
        }
    }

    fn stats2(&mut self) -> Result<HashMap<String, u64>, String> {
        Ok(self
            .ok("stats2")?
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }
}

/// The session mutations a wire `mutate` line carries.
fn mutations(line: &str) -> Result<Vec<Mutation>, String> {
    match Request::parse(line) {
        Ok(Request::Incr(IncrOp::Mutate { ops, .. })) => Ok(ops),
        other => Err(format!("{line:?} is not a mutate line: {other:?}")),
    }
}

/// A connection's session and the in-process replica that mirrors it.
struct Mirror {
    id: u64,
    replica: Session,
    /// The options the server resolves with (the defaults).
    opts: ReplaceOptions,
}

/// State of one set-up. Field order matters: connections close before
/// the server is dropped, so its shutdown does not wait on them.
pub struct State {
    conns: Vec<Conn>,
    control: Conn,
    mirrors: Vec<Mirror>,
    scripts: Vec<Vec<Op>>,
    workers: usize,
    /// Held for its `Drop`, which shuts the server down.
    _server: Server,
}

/// The `serve-mixed` workload.
pub struct ServeMixed;

impl Workload for ServeMixed {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let width = nproc().min(2);
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .workers(width)
            .parallelism(hgp_core::Parallelism::serial())
            .queue_capacity(64)
            .cache_capacity(1 << 16)
            .max_sessions(16)
            .build();
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let mut control = Conn::open(&server)?;
        let k = keys(cfg.seed);
        for &(g, s) in &k.hit {
            control.ok(&solve_line("16x16", g, s, false))?;
        }
        control.ok(&solve_line("15x17", k.twin.0, k.twin.1, false))?;
        let per_conn = op_count(cfg.seconds, OPS_PER_S, 40).div_ceil(width);
        let (mut conns, mut mirrors, mut scripts) = (Vec::new(), Vec::new(), Vec::new());
        for c in 0..width {
            let mut conn = Conn::open(&server)?;
            let reply = conn.ok(&format!("place-incremental new machine={MACHINE}"))?;
            let id: u64 = reply_field(&reply, "session")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("no session id in {reply:?}"))?;
            let h = hgp_hierarchy::parse_hierarchy(MACHINE).map_err(|e| e.to_string())?;
            let mut replica = Session::new(h);
            let opts = ReplaceOptions::default();
            let (fill, mut demands) = session_fill(cfg.seed, c, id);
            for line in &fill {
                conn.ok(line)?;
                if line.contains(" resolve ") {
                    replica.resolve(&opts);
                } else {
                    replica
                        .apply(&mutations(line)?)
                        .map_err(|e| format!("replica rejected {line:?}: {e}"))?;
                }
            }
            for i in 0..WARMUP {
                let (g, s) = k.hit[(c + i) % HIT_KEYS];
                conn.ok(&solve_line("16x16", g, s, false))?;
            }
            scripts.push(script(cfg.seed, c, per_conn, id, &mut demands));
            mirrors.push(Mirror { id, replica, opts });
            conns.push(conn);
        }
        Ok(State {
            conns,
            control,
            mirrors,
            scripts,
            workers: width,
            _server: server,
        })
    }

    fn shape(&self, state: &State) -> Shape {
        let mut counts = [0usize; CLASSES.len()];
        for op in state.scripts.iter().flatten() {
            counts[op.class] += 1;
        }
        Shape {
            server_workers: state.workers,
            connections: state.conns.len(),
            classes: CLASSES.iter().zip(counts).map(|(c, m)| (c.0, m)).collect(),
        }
    }

    fn pass(&self, state: &mut State, traced: bool) -> Result<Pass, String> {
        let before = state.control.stats2()?;
        let total: usize = state.scripts.iter().map(Vec::len).sum();
        let sink = layers::sink(total);
        let barrier = Barrier::new(state.conns.len() + 1);
        alloc::begin_phase();
        alloc::armed(true);
        let (results, wall_s) = std::thread::scope(|scope| {
            let mut base = 0usize;
            let handles: Vec<_> = state
                .conns
                .iter_mut()
                .zip(&state.scripts)
                .map(|(conn, ops)| {
                    let (sink, barrier) = (&sink, &barrier);
                    let first = base;
                    base += ops.len();
                    scope.spawn(move || replay(conn, ops, first, traced, sink, barrier))
                })
                .collect();
            barrier.wait();
            let t = Instant::now();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (results, t.elapsed().as_secs_f64())
        });
        alloc::armed(false);
        let results: Vec<Replayed> = results.into_iter().collect::<Result<_, _>>()?;
        let after = state.control.stats2()?;
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0) as f64
                - before.get(key).copied().unwrap_or(0) as f64
        };

        let mut pass = Pass {
            wall_s,
            peak_heap: alloc::peak_bytes(),
            ..Pass::default()
        };
        let mut t = Tally::default();
        for ((ops, rep), mirror) in state.scripts.iter().zip(&results).zip(&mut state.mirrors) {
            for (i, op) in ops.iter().enumerate() {
                pass.lat_ms.push(rep.op_ms[i]);
                pass.class_of.push(op.class);
                let verdict = match op.class {
                    SESSION => check_session(mirror, op, &rep.replies[i], &mut pass.checks, &mut t),
                    COALESCE => check_pair(op, &rep.replies[i], &mut pass.checks, &mut t),
                    _ => check_solve(op, &rep.replies[i][0], &mut pass.checks, &mut t),
                };
                pass.checks.op(verdict.err());
            }
        }
        pass.checks.churn_moves = t.session_moves;
        pass.checks
            .count("decomp.builds", delta("cache.builds") as u64);
        pass.checks.count("session.warm-resolves", t.warm);
        if traced {
            let mut l = Layers::default();
            let class_ms = |c: usize| -> Vec<f64> {
                pass.lat_ms
                    .iter()
                    .zip(&pass.class_of)
                    .filter(|&(_, &k)| k == c)
                    .map(|(&v, _)| v)
                    .collect()
            };
            l.p50("server.hit_ms", &class_ms(HIT));
            l.p50("server.near_ms", &class_ms(NEAR));
            l.p50("server.miss_ms", &class_ms(MISS));
            l.p50("server.coalesce_ms", &class_ms(COALESCE));
            l.p50("server.session_ms", &class_ms(SESSION));
            let apply: Vec<f64> = results.iter().flat_map(|r| r.apply_ms.clone()).collect();
            let resolve: Vec<f64> = results.iter().flat_map(|r| r.resolve_ms.clone()).collect();
            l.p50("session.apply_ms", &apply);
            l.p50("session.resolve_ms", &resolve);
            l.set(
                "session.warm_ratio",
                t.warm as f64 / resolve.len().max(1) as f64,
            );
            l.set("session.moves", t.session_moves as f64);
            l.set("queue.wait_us_p50", median(&t.queue_us));
            l.set("queue.wait_us_p99", quantile(&t.queue_us, 0.99));
            l.p50("decomp.build_ms", &t.build_ms);
            l.set(
                "decomp.share",
                t.build_ms.iter().sum::<f64>() / pass.lat_ms.iter().sum::<f64>(),
            );
            l.set("decomp.builds", delta("cache.builds"));
            l.p50("sweep.ms", &t.sweep_ms);
            l.set(
                "sweep.share",
                t.sweep_ms.iter().sum::<f64>() / pass.lat_ms.iter().sum::<f64>(),
            );
            l.p50("tree.dp_ms", &t.dp_ms);
            l.p50("tree.repair_ms", &t.repair_ms);
            let solves = delta("solve.ok") + delta("solve.degraded") + delta("solve.err");
            let busy_us = delta("pool.busy-us");
            l.set(
                "pool.utilisation",
                busy_us / (state.workers as f64 * wall_s * 1e6),
            );
            l.set("cache.hit_ratio", delta("cache.hits") / solves.max(1.0));
            l.set(
                "cache.near_ratio",
                delta("cache.near-hits") / solves.max(1.0),
            );
            l.set("cache.builds", delta("cache.builds"));
            l.set("cache.coalesced", delta("cache.coalesced"));
            l.set("solve.degraded", delta("solve.degraded"));
            let records = sink.records();
            let requests: f64 = records
                .iter()
                .filter(|r| r.name == layers::REQUEST)
                .map(|r| r.dur_ns as f64 * 1e-9)
                .sum();
            l.set(
                "trace.coverage",
                requests / (wall_s * state.conns.len() as f64),
            );
            pass.layers = l.into_vec();
        }
        Ok(pass)
    }
}

/// What one connection's replay returned.
struct Replayed {
    op_ms: Vec<f64>,
    replies: Vec<Vec<String>>,
    apply_ms: Vec<f64>,
    resolve_ms: Vec<f64>,
}

fn replay(
    conn: &mut Conn,
    ops: &[Op],
    first: usize,
    traced: bool,
    sink: &TraceSink,
    barrier: &Barrier,
) -> Result<Replayed, String> {
    let mut out = Replayed {
        op_ms: Vec::with_capacity(ops.len()),
        replies: Vec::with_capacity(ops.len()),
        apply_ms: Vec::new(),
        resolve_ms: Vec::new(),
    };
    // traced solves ask the server for their stage profile too
    let sent: Vec<Vec<String>> = ops
        .iter()
        .map(|op| {
            op.lines
                .iter()
                .map(|l| {
                    if traced && op.class != SESSION {
                        format!("{l} trace=1")
                    } else {
                        l.clone()
                    }
                })
                .collect()
        })
        .collect();
    barrier.wait();
    for (i, (op, lines)) in ops.iter().zip(&sent).enumerate() {
        let t = Instant::now();
        let op_span = traced.then(|| sink.span_with(layers::OP, NO_PARENT, (first + i) as u64));
        let replies = if op.class == SESSION {
            let mut replies = Vec::with_capacity(lines.len());
            for (j, line) in lines.iter().enumerate() {
                let tl = Instant::now();
                let reply = {
                    let _r = op_span
                        .as_ref()
                        .map(|o| sink.span_with(layers::REQUEST, o.id(), j as u64));
                    conn.call(line)?
                };
                let ms = tl.elapsed().as_secs_f64() * 1e3;
                if j == 0 {
                    &mut out.apply_ms
                } else {
                    &mut out.resolve_ms
                }
                .push(ms);
                replies.push(reply);
            }
            replies
        } else {
            // one solve, or a coalesce pair sent in one write
            let _r = op_span
                .as_ref()
                .map(|o| sink.span_with(layers::REQUEST, o.id(), 0));
            conn.pipeline(lines)?
        };
        drop(op_span);
        out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.replies.push(replies);
    }
    Ok(out)
}

/// Server-side facts gathered while checking replies.
#[derive(Default)]
struct Tally {
    warm: u64,
    session_moves: u64,
    queue_us: Vec<f64>,
    build_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    dp_ms: Vec<f64>,
    repair_ms: Vec<f64>,
}

fn num<T: std::str::FromStr>(reply: &str, key: &str) -> Result<T, String> {
    reply_field(reply, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks a valid {key}=: {reply:?}"))
}

/// Checks both replies of a coalesce pair: each on its own, and the two
/// placements bit-identical (a follower reuses the leader's build; one
/// that arrives after the build is served from the cache).
fn check_pair(
    op: &Op,
    replies: &[String],
    checks: &mut Checks,
    t: &mut Tally,
) -> Result<(), String> {
    for reply in replies {
        check_solve(op, reply, checks, t)?;
    }
    let same = |key| reply_field(&replies[0], key) == reply_field(&replies[1], key);
    if same("cost") && same("assignment") {
        Ok(())
    } else {
        Err(format!(
            "{:?}: coalesced replies differ: {:?} vs {:?}",
            op.lines[0], replies[0], replies[1]
        ))
    }
}

/// Recomputes a `solve` reply's placement from the request line alone.
fn check_solve(op: &Op, reply: &str, checks: &mut Checks, t: &mut Tally) -> Result<(), String> {
    let line = &op.lines[0];
    if !reply.starts_with("ok ") {
        return Err(format!("{line:?} answered {reply:?}"));
    }
    let expected: &[&str] = match op.class {
        HIT => &["hit"],
        NEAR => &["near"],
        MISS => &["miss"],
        _ => &["miss", "shared", "hit"],
    };
    let cache = reply_field(reply, "cache").unwrap_or("");
    if !expected.contains(&cache) || reply_field(reply, "degraded") != Some("0") {
        return Err(format!(
            "{line:?}: expected cache={expected:?} degraded=0, got {reply:?}"
        ));
    }
    let Ok(Request::Solve(spec)) = Request::parse(line) else {
        return Err(format!("{line:?} is not a solve line"));
    };
    let inst = spec.instance().map_err(|e| e.msg)?;
    let leaves: Vec<u32> = reply_field(reply, "assignment")
        .ok_or_else(|| format!("reply lacks assignment=: {reply:?}"))?
        .split(',')
        .map(|l| l.parse().map_err(|_| format!("bad leaf {l:?}")))
        .collect::<Result<_, _>>()?;
    let bound = check::pipeline_bound(inst.demands(), &spec.machine, spec.units);
    let (cost, factor, verdict) = check::placement(
        line,
        &inst,
        &spec.machine,
        &leaves,
        num(reply, "cost")?,
        bound,
    );
    checks.placement(cost, factor);
    if reply_field(reply, "trace.queue-wait-us").is_some() {
        t.queue_us.push(num(reply, "trace.queue-wait-us")?);
        let us = |key| num::<f64>(reply, key).map(|v| v * 1e-3);
        if cache == "miss" || cache == "near" {
            t.build_ms.push(us("trace.distribution-us")?);
        }
        t.sweep_ms.push(us("trace.sweep-us")?);
        t.dp_ms.push(us("trace.dp-cpu-us")?);
        t.repair_ms.push(us("trace.repair-cpu-us")?);
    }
    verdict
}

/// Replays a session op on the connection's replica and compares the
/// server's replies with it; the replica itself is checked against a full
/// recompute.
fn check_session(
    m: &mut Mirror,
    op: &Op,
    replies: &[String],
    checks: &mut Checks,
    t: &mut Tally,
) -> Result<(), String> {
    let what = format!("session {} op {:?}", m.id, op.lines[0]);
    for r in replies {
        if !r.starts_with("ok ") {
            return Err(format!("{what}: answered {r:?}"));
        }
    }
    let delta = m
        .replica
        .apply(&mutations(&op.lines[0])?)
        .map_err(|e| format!("{what}: replica rejected the batch: {e}"))?;
    let rep = m.replica.resolve(&m.opts);
    t.warm += u64::from(rep.warm);
    t.session_moves += delta.moves + rep.moves as u64;
    let units = m.opts.solver.rounding.units_per_leaf();
    let (cost, factor, verdict) = check::session(&what, &m.replica, &rep, units);
    checks.placement(cost, factor);
    verdict?;
    same_cost(&what, num(&replies[0], "cost")?, delta.cost)?;
    same_cost(&what, num(&replies[1], "cost")?, rep.cost)?;
    let moves: usize = num(&replies[1], "moves")?;
    let warm: u8 = num(&replies[1], "warm")?;
    if moves != rep.moves || warm != u8::from(rep.warm) {
        return Err(format!(
            "{what}: server resolved moves={moves} warm={warm}, replica moves={} warm={}",
            rep.moves, rep.warm
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_fixed_per_seed_with_exact_class_counts() {
        let mut d1 = vec![0.05; SESSION_SIDE * SESSION_SIDE];
        let mut d2 = d1.clone();
        let a = script(5, 0, 100, 1, &mut d1);
        assert_eq!(a, script(5, 0, 100, 1, &mut d2));
        assert_eq!(d1, d2);
        let counts = class_counts(100);
        assert_eq!(counts, CLASSES.map(|c| c.1));
        for (c, &m) in counts.iter().enumerate() {
            assert_eq!(a.iter().filter(|o| o.class == c).count(), m);
        }
        // fresh graphs never repeat, within or across connections
        let b = script(5, 1, 100, 2, &mut d1);
        let mut fresh: Vec<&String> = a
            .iter()
            .chain(&b)
            .filter(|o| o.class == NEAR || o.class == MISS || o.class == COALESCE)
            .map(|o| &o.lines[0])
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }

    #[test]
    fn every_script_line_parses() {
        let mut d = vec![0.05; SESSION_SIDE * SESSION_SIDE];
        let (fill, _) = session_fill(9, 0, 3);
        for line in fill
            .iter()
            .chain(script(9, 0, 60, 3, &mut d).iter().flat_map(|o| &o.lines))
        {
            assert!(Request::parse(line).is_ok(), "{line}");
        }
    }
}
