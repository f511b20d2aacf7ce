//! The lint rule table.
//!
//! Rules are data: an id, a severity, a scope predicate over
//! workspace-relative paths, and a token-level checker. Adding a rule
//! means adding one entry to [`RULES`] — the driver, allow-comment
//! handling, JSON report, and fixtures all pick it up automatically.

use crate::lexer::{LexedFile, Tok};
use crate::Finding;

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Always fails the run.
    Deny,
    /// Fails only under `--deny-warnings`.
    Warn,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One table-driven rule.
pub struct RuleSpec {
    /// Stable identifier (used in `npcheck: allow(<id>)`).
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists (printed by `--list-rules`).
    pub why: &'static str,
    /// Path scope: does this rule apply to `rel_path`?
    pub applies: fn(&str) -> bool,
    /// Token-level checker; pushes findings.
    pub check: fn(&str, &LexedFile, &mut Vec<Finding>),
}

impl std::fmt::Debug for RuleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RuleSpec({})", self.id)
    }
}

/// Crates whose results must be bit-reproducible: the simulation
/// kernel, the NP model, the schedulers, the detector, the hashing
/// substrate, and the workload models.
const SIM_CRATE_PREFIXES: &[&str] = &[
    "crates/detsim/",
    "crates/npsim/",
    "crates/core/",
    "crates/afd/",
    "crates/nphash/",
    "crates/nptraffic/",
];

/// Modules on the per-packet critical path: a panic here is a dropped
/// simulation, and `unwrap`-dense code hides the queue/map invariants
/// the paper's migration logic depends on. Matched by prefix so the
/// `engine/` stage directory (ingest/dispatch/service/record, plus the
/// batched run loop `batch.rs` and the pending-event set `pending.rs`)
/// is covered as one unit. `source.rs` joined the hot path when burst
/// refills moved the per-arrival gap/record draws into it. The npexec
/// worker and dispatcher loops run per packet on real threads — a
/// panic there poisons a join and an allocation there is multiplied by
/// every worker — so they carry the same discipline.
const HOT_PATH_PREFIXES: &[&str] = &[
    "crates/npsim/src/engine",
    "crates/npsim/src/order.rs",
    "crates/npsim/src/fault.rs",
    "crates/npsim/src/source.rs",
    "crates/core/src/laps.rs",
    "crates/core/src/faults.rs",
    "crates/core/src/spsc.rs",
    "crates/core/src/scr.rs",
    "crates/afd/src/cache.rs",
    "crates/npexec/src/worker.rs",
    "crates/npexec/src/dispatcher.rs",
];

/// The only places allowed to read wall clocks or OS entropy: the
/// repository benchmark under `benchmark/` (whose job is timing the
/// code it drives) and the explicit wall-clock-timing experiment
/// binary. The npfarm sweep orchestrator is *not* exempted as a crate
/// — its two telemetry call sites (cell timing recorded in the
/// per-cell JSONL, excluded from every result payload and cache key)
/// carry per-line allow comments instead, so any new wall-clock read
/// there has to justify itself. The npexec
/// backend's lib.rs is exempt because wall-clock throughput is the
/// quantity it exists to produce (its report counters still come from
/// the deterministic arrival plan) — but only lib.rs: the worker and
/// dispatcher loops must not read clocks, so they stay scoped.
const WALL_CLOCK_EXEMPT: &[&str] = &[
    "benchmark/",
    "crates/experiments/src/bin/timing.rs",
    "crates/npexec/src/lib.rs",
];

/// Crates whose types are shared across OS threads: the npfarm worker
/// pool, core's handshake board and spsc ring, and the npexec
/// thread-per-core backend built on them. Interior mutability,
/// hand-vouched `Send`/`Sync`, and relaxed atomic orderings get
/// audited here.
const THREAD_SHARED_PREFIXES: &[&str] = &["crates/core/", "crates/npfarm/", "crates/npexec/"];

/// Crates where a queue with no capacity bound can grow without limit
/// under overload — the exact failure mode the paper's load balancer
/// exists to prevent, and (for the event queue) the simulator's own
/// memory ceiling.
const QUEUE_SCOPE_PREFIXES: &[&str] = &[
    "crates/npsim/",
    "crates/core/",
    "crates/detsim/",
    "crates/npexec/",
];

fn in_sim_crate(path: &str) -> bool {
    SIM_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn is_hot_path(path: &str) -> bool {
    HOT_PATH_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn wall_clock_scoped(path: &str) -> bool {
    !WALL_CLOCK_EXEMPT
        .iter()
        .any(|p| path.starts_with(p) || path == *p)
}

fn in_thread_shared_crate(path: &str) -> bool {
    THREAD_SHARED_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_queue_scope(path: &str) -> bool {
    QUEUE_SCOPE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// The rule table.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "nondet-collections",
        severity: Severity::Deny,
        summary: "HashMap/HashSet/RandomState with the default hasher in simulation crates",
        why: "std's default hasher is seeded from OS entropy per process, so iteration \
              order differs between runs; any code that iterates such a map breaks \
              byte-reproducibility of reports and paired scheduler comparisons. Use \
              nphash::det::{DetHashMap, DetHashSet} or a BTreeMap/BTreeSet.",
        applies: in_sim_crate,
        check: check_nondet_collections,
    },
    RuleSpec {
        id: "wall-clock",
        severity: Severity::Deny,
        summary: "Instant::now / SystemTime / thread_rng / rand::random / from_entropy outside timing crates",
        why: "Wall-clock reads and OS entropy inject host state into the simulation: \
              results stop being a function of (config, seed). Virtual time comes from \
              detsim::SimTime; randomness from detsim::rng::SeedSequence streams.",
        applies: wall_clock_scoped,
        check: check_wall_clock,
    },
    RuleSpec {
        id: "hot-path-panic",
        severity: Severity::Deny,
        summary: ".unwrap()/.expect()/slice indexing in hot-path modules",
        why: "npsim::engine, npsim::order, core::laps and afd::cache run per packet; a \
              panic there kills the whole experiment sweep, and indexing hides the \
              bounds invariant. Handle the None/Err case or document the invariant \
              with an allow comment.",
        applies: is_hot_path,
        check: check_hot_path_panic,
    },
    RuleSpec {
        id: "probe-hot-path",
        severity: Severity::Warn,
        summary: "allocation or nondeterministic collections inside a probe's `on_event`",
        why: "Probes observe every published simulation event; an allocation there \
              (Vec::new, to_string, collect, format!, …) turns the observability bus \
              into a per-event allocator and perturbs timing-sensitive benchmarks, \
              while HashMap/HashSet iteration makes probe output nondeterministic. \
              Preallocate in the constructor — amortized `push`/`resize` into \
              existing buffers is fine.",
        applies: in_sim_crate,
        check: check_probe_hot_path,
    },
    RuleSpec {
        id: "float-accum",
        severity: Severity::Warn,
        summary: "naive += / -= of computed float terms in detsim::stats",
        why: "Repeated naive f64 accumulation loses low-order bits, and its error \
              depends on summation order — a silent threat to cross-run comparisons \
              of long simulations. Use detsim::stats::KahanSum (compensated \
              summation) or justify with an allow comment.",
        applies: |p| p == "crates/detsim/src/stats.rs",
        check: check_float_accum,
    },
    RuleSpec {
        id: "shared-state-audit",
        severity: Severity::Deny,
        summary: "static mut / unsafe impl Send|Sync / Rc/RefCell/Cell / unjustified atomic Ordering in thread-shared crates",
        why: "core and npfarm types cross OS threads (worker pool today, the \
              thread-per-core npexec backend next). `static mut` and hand-written \
              `unsafe impl Send/Sync` bypass the compiler's data-race guarantees; \
              Rc/RefCell/Cell are single-thread-only and poison any type they're \
              embedded in; and every explicit atomic memory ordering weaker than \
              or equal to Acquire/Release must carry a written argument — \
              `// npcheck: ordering(<why>)` on the same or preceding line — \
              because the loom shim model-checks protocols under sequential \
              consistency and cannot catch a wrong ordering choice.",
        applies: in_thread_shared_crate,
        check: check_shared_state,
    },
    RuleSpec {
        id: "unbounded-queue",
        severity: Severity::Warn,
        summary: "VecDeque::new / mpsc::channel / Vec-as-queue (.remove(0), .insert(0, …)) without a capacity bound",
        why: "An unbounded queue turns overload into unbounded memory growth and \
              unbounded latency — the precise condition the paper's migration \
              policy exists to avoid, and for the simulator's own event queue, its \
              memory ceiling. Construct with with_capacity and enforce a cap at \
              the push site, or justify the unboundedness with an allow comment. \
              Front-of-Vec `.remove(0)`/`.insert(0, …)` are also flagged: they're \
              O(n) queue emulation — use a ring buffer.",
        applies: in_queue_scope,
        check: check_unbounded_queue,
    },
    RuleSpec {
        id: "blocking-hot-path",
        severity: Severity::Deny,
        summary: "Mutex/RwLock acquisition, sleep, blocking I/O, or allocation in hot-path modules",
        why: "The engine stages, order tracker, flow tables, and spsc ring run per \
              packet; a lock or syscall there serializes the thread-per-core \
              design away, and a per-packet allocation perturbs the timing the \
              benchmarks measure. Preallocate in a constructor (`fn new`, \
              `with_*`, `from_*`, `build*` — those are exempt), hoist the work to \
              setup/teardown, or justify a cold-path exception (error \
              construction, validation) with an allow comment.",
        applies: is_hot_path,
        check: check_blocking_hot_path,
    },
    RuleSpec {
        id: "unbatched-hot-loop",
        severity: Severity::Warn,
        summary: "per-item crc16_ccitt / map-table lookup inside a for loop in hot-path modules",
        why: "The hashing substrate ships burst counterparts — crc16_ccitt_batch runs \
              four CRC lanes in lockstep and MapTable::lookup_batch maps a whole \
              burst — that hide table load-to-use latency across the packets of a \
              burst. A per-item scalar call in a hot loop forfeits that ILP: collect \
              the burst's keys and make one batch call, or justify the scalar form \
              (e.g. a genuinely serial dependency) with an allow comment.",
        applies: is_hot_path,
        check: check_unbatched_hot_loop,
    },
];

/// A pass that sees a whole crate's lexed files at once. File rules
/// match token patterns; crate passes can correlate *across* files —
/// the lock-order pass needs every acquisition site in the crate to
/// decide whether two locks are ever nested both ways.
pub struct CrateRuleSpec {
    /// Stable identifier (used in `npcheck: allow(<id>)`).
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists.
    pub why: &'static str,
    /// Which files participate in the pass.
    pub applies: fn(&str) -> bool,
    /// Whole-crate checker over `(rel_path, lexed)` pairs.
    pub check: fn(&[(&str, &LexedFile)], &mut Vec<Finding>),
}

impl std::fmt::Debug for CrateRuleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CrateRuleSpec({})", self.id)
    }
}

/// The crate-pass table.
pub const CRATE_RULES: &[CrateRuleSpec] = &[CrateRuleSpec {
    id: "lock-order",
    severity: Severity::Deny,
    summary: "two named locks acquired in both nesting orders within one crate",
    why: "Inconsistent lock nesting is the classic deadlock recipe: thread A \
          holds `a` wanting `b` while thread B holds `b` wanting `a`. This pass \
          records the textual nesting order of every named `.lock()` call per \
          crate and reports pairs seen in both orders. It is conservative — \
          receivers are matched by field/variable name, guard lifetimes are \
          approximated by scope — so a reported inversion is either a real \
          hazard or a naming collision worth an explanatory allow comment at \
          the reported site.",
    applies: |p| !p.starts_with("crates/shims/"),
    check: check_lock_order,
}];

/// Which pass a rule belongs to (for the manifest and SARIF output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Per-file token pass.
    File,
    /// Whole-crate correlation pass.
    Crate,
}

impl Pass {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Pass::File => "file",
            Pass::Crate => "crate",
        }
    }
}

/// Unified metadata row covering both rule tables — drives
/// `npcheck --rules`, `--list-rules`, and the SARIF rule table.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable identifier.
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// File or crate pass.
    pub pass: Pass,
    /// One-line description.
    pub summary: &'static str,
    /// Why the rule exists.
    pub why: &'static str,
}

/// Every rule, file passes first, in table order.
pub fn all_rules() -> Vec<RuleMeta> {
    RULES
        .iter()
        .map(|r| RuleMeta {
            id: r.id,
            severity: r.severity,
            pass: Pass::File,
            summary: r.summary,
            why: r.why,
        })
        .chain(CRATE_RULES.iter().map(|r| RuleMeta {
            id: r.id,
            severity: r.severity,
            pass: Pass::Crate,
            summary: r.summary,
            why: r.why,
        }))
        .collect()
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.id == id)
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static RuleSpec,
    file: &str,
    line: usize,
    message: String,
) {
    findings.push(Finding {
        rule: rule.id,
        severity: rule.severity,
        file: file.to_string(),
        line,
        message,
    });
}

fn rule(id: &str) -> &'static RuleSpec {
    // npcheck: allow(hot-path-panic) — not a hot path; table lookup of a const id
    rule_by_id(id).unwrap_or_else(|| panic!("rule table entry `{id}` missing"))
}

fn check_nondet_collections(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("nondet-collections");
    for (i, (line, tok)) in lexed.tokens.iter().enumerate() {
        let Tok::Ident(name) = tok else { continue };
        if name != "HashMap" && name != "HashSet" && name != "RandomState" {
            continue;
        }
        // `HashMap<K, V, S>` with an explicit third type parameter (a
        // chosen hasher) is fine; only the default-hasher form is
        // flagged. Detecting that generally needs a parser, so the
        // deterministic aliases (DetHashMap/DetHashSet) are the
        // sanctioned route and raw names are always flagged here.
        let _ = i;
        push(
            findings,
            spec,
            file,
            *line,
            format!("`{name}` uses a randomly-seeded hasher; use nphash::det::{{DetHashMap, DetHashSet}} or BTreeMap/BTreeSet"),
        );
    }
}

fn check_wall_clock(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("wall-clock");
    let toks = &lexed.tokens;
    for (i, (line, tok)) in toks.iter().enumerate() {
        let Tok::Ident(name) = tok else { continue };
        match name.as_str() {
            "SystemTime" => push(
                findings,
                spec,
                file,
                *line,
                "`SystemTime` reads the wall clock; simulation time must come from detsim::SimTime".into(),
            ),
            "thread_rng" => push(
                findings,
                spec,
                file,
                *line,
                "`thread_rng` is OS-entropy-seeded; mint seeded streams via detsim::rng::SeedSequence".into(),
            ),
            "from_entropy" => push(
                findings,
                spec,
                file,
                *line,
                "`from_entropy` seeds from the OS; use seed_from_u64 with a derived seed".into(),
            ),
            // Only `Instant::now(...)` — the type name alone can
            // appear in signatures of exempted helpers.
            "Instant"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("now")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`Instant::now` reads the wall clock; simulation time must come from detsim::SimTime".into(),
                );
            }
            // `rand::random` path form.
            "random"
                if i >= 3
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 3).is_some_and(|(_, t)| t.is_ident("rand")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`rand::random` is thread_rng in disguise; draw from a seeded stream".into(),
                );
            }
            _ => {}
        }
    }
}

fn check_hot_path_panic(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("hot-path-panic");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        // The in-file test module (from `#[cfg(test)]` down) may
        // unwrap freely — tests *should* panic on violated invariants.
        if *line >= limit {
            break;
        }
        match tok {
            Tok::Ident(name) if name == "unwrap" || name == "expect" => {
                let is_method_call = i >= 1
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct("."))
                    && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("("));
                if is_method_call {
                    push(
                        findings,
                        spec,
                        file,
                        *line,
                        format!("`.{name}()` on the per-packet path; handle the miss or document the invariant"),
                    );
                }
            }
            Tok::Punct(p) if p == "[" => {
                // Expression indexing: `[` directly after an identifier,
                // `)`, or `]`. Attributes (`#[...]`), array types/
                // literals, and macro brackets don't match this shape.
                // Keywords can't name an indexable value, so `&mut [T]`
                // slice types and `in [..]` literals are excluded.
                const KEYWORDS: &[&str] = &[
                    "mut", "dyn", "in", "as", "return", "break", "else", "match", "impl",
                ];
                let is_index = i >= 1
                    && toks.get(i - 1).is_some_and(|(_, t)| match t {
                        Tok::Ident(name) => !KEYWORDS.contains(&name.as_str()),
                        other => other.is_punct(")") || other.is_punct("]"),
                    });
                if is_index {
                    push(
                        findings,
                        spec,
                        file,
                        *line,
                        "slice/array indexing can panic on the per-packet path; use .get()/.get_mut() or document the bound".into(),
                    );
                }
            }
            _ => {}
        }
    }
}

fn check_probe_hot_path(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("probe-hot-path");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let mut i = 0;
    while i + 1 < toks.len() {
        // Find each `fn on_event` (test modules may allocate freely).
        if toks[i].0 >= limit {
            break;
        }
        if !(toks[i].1.is_ident("fn") && toks[i + 1].1.is_ident("on_event")) {
            i += 1;
            continue;
        }
        // Skip to the body's opening `{`; a `;` first means a trait
        // declaration without a body.
        let mut j = i + 2;
        loop {
            match toks.get(j) {
                None => return,
                Some((_, t)) if t.is_punct(";") => break,
                Some((_, t)) if t.is_punct("{") => break,
                _ => j += 1,
            }
        }
        if toks.get(j).is_some_and(|(_, t)| t.is_punct(";")) {
            i = j + 1;
            continue;
        }
        // Brace-track the body and flag allocating constructs inside.
        let mut depth = 0usize;
        while let Some((line, t)) = toks.get(j) {
            match t {
                Tok::Punct(p) if p == "{" => depth += 1,
                Tok::Punct(p) if p == "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(n) if n == "HashMap" || n == "HashSet" => push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!(
                        "`{n}` in `on_event`: probe state must be deterministic and preallocated"
                    ),
                ),
                Tok::Ident(n) if n == "Vec" || n == "String" || n == "Box" => {
                    let ctor = toks.get(j + 1).is_some_and(|(_, t)| t.is_punct(":"))
                        && toks.get(j + 2).is_some_and(|(_, t)| t.is_punct(":"))
                        && toks.get(j + 3).is_some_and(|(_, t)| {
                            matches!(t, Tok::Ident(m)
                                if m == "new" || m == "with_capacity" || m == "from")
                        });
                    if ctor {
                        push(
                            findings,
                            spec,
                            file,
                            *line,
                            format!("`{n}::…` constructor in `on_event` allocates per event; preallocate in the probe constructor"),
                        );
                    }
                }
                Tok::Ident(n)
                    if n == "to_string" || n == "to_owned" || n == "to_vec" || n == "collect" =>
                {
                    let method_call = j >= 1
                        && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct("."))
                        && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("("));
                    if method_call {
                        push(
                            findings,
                            spec,
                            file,
                            *line,
                            format!("`.{n}()` in `on_event` allocates per event; record into preallocated probe state"),
                        );
                    }
                }
                Tok::Ident(n)
                    if (n == "format" || n == "vec")
                        && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("!")) =>
                {
                    push(
                        findings,
                        spec,
                        file,
                        *line,
                        format!("`{n}!` in `on_event` allocates per event; defer rendering to `on_finish` or an accessor"),
                    );
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

fn check_float_accum(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("float-accum");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        let Tok::Punct(op) = tok else { continue };
        if op != "+=" && op != "-=" {
            continue;
        }
        // Scan the right-hand side (to `;`): arithmetic on computed
        // terms (`*`, `/`), float literals, or an `as f64` cast mark a
        // float accumulation; bare counter bumps (`+= 1`, `+= n`) pass.
        let mut j = i + 1;
        let mut suspicious = false;
        while let Some((_, t)) = toks.get(j) {
            if t.is_punct(";") {
                break;
            }
            match t {
                Tok::Punct(p) if p == "*" || p == "/" => suspicious = true,
                Tok::Num(nm) if nm.contains('.') => suspicious = true,
                Tok::Ident(id) if id == "f64" || id == "f32" => suspicious = true,
                _ => {}
            }
            j += 1;
        }
        if suspicious {
            push(
                findings,
                spec,
                file,
                *line,
                format!(
                    "`{op}` accumulates computed float terms; use KahanSum (compensated summation)"
                ),
            );
        }
    }
}

/// Atomic orderings that demand a written justification. `SeqCst` is
/// the conservative default and passes; `cmp::Ordering` variants
/// (`Less`/`Equal`/`Greater`) never collide with this set.
const JUSTIFIED_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

fn check_shared_state(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("shared-state-audit");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    // `Cell` is only std's cell type if the file actually references
    // the `cell::` path with `Cell` in it (import or inline path) —
    // domain types named `Cell` (npfarm's sweep-grid cells) must not
    // collide. `Rc`/`RefCell`/`UnsafeCell` are distinctive enough to
    // flag unconditionally.
    let std_cell_referenced = toks.windows(3).enumerate().any(|(i, w)| {
        w[0].1.is_ident("cell") && w[1].1.is_punct(":") && w[2].1.is_punct(":") && {
            toks[i + 3..]
                .iter()
                .take_while(|(_, t)| !t.is_punct(";"))
                .any(|(_, t)| t.is_ident("Cell"))
        }
    });
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        let Tok::Ident(name) = tok else { continue };
        match name.as_str() {
            "static" if toks.get(i + 1).is_some_and(|(_, t)| t.is_ident("mut")) => push(
                findings,
                spec,
                file,
                *line,
                "`static mut` is unsynchronized global state; use an atomic, a lock, or per-core fields".into(),
            ),
            "unsafe" if toks.get(i + 1).is_some_and(|(_, t)| t.is_ident("impl")) => {
                // `unsafe impl Send/Sync for T` — scan the header up to
                // the body/terminator for the marker trait name.
                let mut j = i + 2;
                while let Some((_, t)) = toks.get(j) {
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    if t.is_ident("Send") || t.is_ident("Sync") {
                        push(
                            findings,
                            spec,
                            file,
                            *line,
                            "`unsafe impl Send/Sync` hand-vouches for thread safety the compiler can't check; restructure so the auto-impl applies, or document the proof obligation".into(),
                        );
                        break;
                    }
                    j += 1;
                }
            }
            "Cell" if !std_cell_referenced => {}
            "Rc" | "RefCell" | "Cell" | "UnsafeCell" => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}` is single-thread-only and poisons Send/Sync for any containing type; use Arc/atomics/locks or keep the state core-local"),
            ),
            "Ordering"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| matches!(t, Tok::Ident(v)
                        if JUSTIFIED_ORDERINGS.contains(&v.as_str()))) =>
            {
                let justified = lexed
                    .orderings
                    .iter()
                    .any(|l| *l == *line || *l + 1 == *line);
                if !justified {
                    let variant = match &toks[i + 3].1 {
                        Tok::Ident(v) => v.as_str(),
                        _ => "?",
                    };
                    push(
                        findings,
                        spec,
                        file,
                        *line,
                        format!("`Ordering::{variant}` without a `// npcheck: ordering(<why>)` justification on this or the preceding line; write down the happens-before argument"),
                    );
                }
            }
            _ => {}
        }
    }
}

fn check_unbounded_queue(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("unbounded-queue");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        match tok {
            Tok::Ident(n)
                if n == "VecDeque"
                    && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("new")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`VecDeque::new` declares no capacity bound; use with_capacity and enforce the cap at the push site, or justify unboundedness".into(),
                );
            }
            Tok::Ident(n)
                if n == "channel"
                    && i >= 3
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 3).is_some_and(|(_, t)| t.is_ident("mpsc")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`mpsc::channel` is unbounded; use sync_channel(cap) so backpressure reaches the producer".into(),
                );
            }
            // Vec-as-queue idioms: `.remove(0)` / `.insert(0, …)`.
            Tok::Ident(n)
                if (n == "remove" || n == "insert")
                    && i >= 1
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct("."))
                    && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("("))
                    && toks
                        .get(i + 2)
                        .is_some_and(|(_, t)| matches!(t, Tok::Num(z) if z == "0"))
                    && toks.get(i + 3).is_some_and(|(_, t)| {
                        if n == "remove" {
                            t.is_punct(")")
                        } else {
                            t.is_punct(",")
                        }
                    }) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!("`.{n}(0{}` treats a Vec as a queue (O(n) per op, no bound); use a bounded ring buffer", if n == "remove" { ")" } else { ", …)" }),
                );
            }
            _ => {}
        }
    }
}

/// Token-index ranges of constructor-shaped `fn` bodies (`new`,
/// `default`, `with_*`, `from_*`, `build*`): setup code there may
/// allocate freely — the hot-path contract is about per-packet work.
fn constructor_spans(toks: &[(usize, Tok)]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].1.is_ident("fn") {
            if let Tok::Ident(name) = &toks[i + 1].1 {
                let exempt = name == "new"
                    || name == "default"
                    || name.starts_with("with_")
                    || name.starts_with("from_")
                    || name.starts_with("build");
                if exempt {
                    // Find the body's `{` (a `;` first means no body).
                    let mut j = i + 2;
                    let body = loop {
                        match toks.get(j) {
                            None => return spans,
                            Some((_, t)) if t.is_punct(";") => break None,
                            Some((_, t)) if t.is_punct("{") => break Some(j),
                            _ => j += 1,
                        }
                    };
                    if let Some(start) = body {
                        let mut depth = 0usize;
                        while let Some((_, t)) = toks.get(j) {
                            if t.is_punct("{") {
                                depth += 1;
                            } else if t.is_punct("}") {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        spans.push((start, j));
                        i = j;
                    }
                }
            }
        }
        i += 1;
    }
    spans
}

fn check_blocking_hot_path(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("blocking-hot-path");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let ctor_spans = constructor_spans(toks);
    let in_ctor = |k: usize| ctor_spans.iter().any(|(s, e)| k > *s && k < *e);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        if in_ctor(i) {
            continue;
        }
        let Tok::Ident(name) = tok else { continue };
        let method_call = |j: usize| {
            j >= 1
                && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct("."))
                && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("("))
        };
        let path_call = |j: usize| {
            // `X::name(` — path form (e.g. thread::sleep, File::open).
            j >= 2
                && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct(":"))
                && toks.get(j - 2).is_some_and(|(_, t)| t.is_punct(":"))
        };
        let is_macro = |j: usize| toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("!"));
        match name.as_str() {
            "lock" | "try_lock" if method_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`.{name}()` acquires a lock on the per-packet path; hot-path state must be core-local or go through the spsc ring"),
            ),
            "sleep" if method_call(i) || path_call(i) => push(
                findings,
                spec,
                file,
                *line,
                "`sleep` blocks the core; simulated delay comes from detsim::SimTime events".into(),
            ),
            "File"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`File::…` does blocking I/O on the per-packet path; move I/O to setup/teardown or a reporting stage".into(),
                );
            }
            "read_to_string" | "read_line" if method_call(i) || path_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}` does blocking I/O on the per-packet path; move it off the hot path"),
            ),
            "stdin" | "stdout" | "stderr"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("(")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!("`{name}()` handles are blocking I/O; hot-path code must not touch the console"),
                );
            }
            "println" | "eprintln" | "print" | "eprint" if is_macro(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}!` does blocking, lock-guarded I/O; report through probes or return values"),
            ),
            "format" | "vec" if is_macro(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}!` allocates on the per-packet path; preallocate in a constructor or hoist to the cold path"),
            ),
            "Box"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("new")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`Box::new` allocates on the per-packet path; preallocate or use an arena/slot".into(),
                );
            }
            "String"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("from")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`String::from` allocates on the per-packet path; use &'static str or preallocated buffers".into(),
                );
            }
            "to_string" | "to_owned" | "to_vec" | "collect" if method_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`.{name}()` allocates on the per-packet path; reuse preallocated buffers"),
            ),
            _ => {}
        }
    }
}

/// Scalar calls that have a burst-sized counterpart in `nphash`; a
/// per-item call inside a hot loop should usually be the batch form.
const BATCHABLE_SCALAR_CALLS: &[(&str, &str)] = &[
    ("crc16_ccitt", "crc16_ccitt_batch"),
    ("lookup", "lookup_batch"),
];

fn check_unbatched_hot_loop(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("unbatched-hot-loop");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let mut i = 0;
    while i < toks.len() {
        if toks[i].0 >= limit {
            break;
        }
        if !toks[i].1.is_ident("for") {
            i += 1;
            continue;
        }
        // A loop header is `for <pat> in <expr> {`; `impl Trait for T {`
        // and `for<'a>` bounds have no `in` before the brace and are
        // skipped. The header scan stops at `;` (trait-bound forms).
        let mut j = i + 1;
        let mut saw_in = false;
        let body = loop {
            match toks.get(j) {
                None => return,
                Some((_, t)) if t.is_punct("{") => break Some(j),
                Some((_, t)) if t.is_punct(";") => break None,
                Some((_, t)) => {
                    saw_in |= t.is_ident("in");
                    j += 1;
                }
            }
        };
        let Some(body) = body else {
            i = j + 1;
            continue;
        };
        if !saw_in {
            i = body + 1;
            continue;
        }
        // Brace-track the body; flag scalar calls that have batch
        // counterparts. Nested loops are found by restarting just
        // inside the body.
        let mut depth = 0usize;
        let mut k = body;
        while let Some((line, t)) = toks.get(k) {
            match t {
                Tok::Punct(p) if p == "{" => depth += 1,
                Tok::Punct(p) if p == "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(n) => {
                    if let Some((_, batch)) = BATCHABLE_SCALAR_CALLS
                        .iter()
                        .find(|(scalar, _)| n == scalar)
                    {
                        // Free/path call (`crc16_ccitt(…)`) or method
                        // call (`table.lookup(…)`) — both need the `(`.
                        let called = toks.get(k + 1).is_some_and(|(_, t)| t.is_punct("("));
                        let method_ok = n != "lookup"
                            || (k >= 1 && toks.get(k - 1).is_some_and(|(_, t)| t.is_punct(".")));
                        if called && method_ok {
                            push(
                                findings,
                                spec,
                                file,
                                *line,
                                format!("`{n}` called once per iteration in a hot loop; `{batch}` processes a burst at a time and hides table latency across packets"),
                            );
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = body + 1;
    }
}

/// Walk back from the `.` before a `lock` call and name the receiver:
/// the nearest identifier, skipping balanced `(...)`/`[...]` groups
/// (so `self.deques[w].lock()` names `deques` and `self.shard(i)
/// .lock()` names `shard`). `None` means the receiver has no stable
/// name (e.g. a temporary) — the acquisition is skipped rather than
/// guessed at.
fn lock_receiver(toks: &[(usize, Tok)], dot: usize) -> Option<String> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match &toks[k].1 {
            Tok::Punct(p) if p == ")" || p == "]" => {
                let (open, close) = if p == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 1usize;
                while depth > 0 {
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                    match &toks[k].1 {
                        Tok::Punct(q) if q == close => depth += 1,
                        Tok::Punct(q) if q == open => depth -= 1,
                        _ => {}
                    }
                }
                // Continue: the token before the group names the call
                // or the indexed field.
            }
            Tok::Ident(name) => return Some(name.clone()),
            _ => return None,
        }
    }
}

/// Does the statement containing token `i` start with `let` (guard
/// bound to a variable, held to end of scope) or not (temporary,
/// dropped at the statement's `;`)?
fn stmt_has_let(toks: &[(usize, Tok)], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        match &toks[k].1 {
            Tok::Punct(p) if p == ";" || p == "{" || p == "}" => return false,
            Tok::Ident(w) if w == "let" => return true,
            _ => {}
        }
    }
    false
}

fn check_lock_order(files: &[(&str, &LexedFile)], findings: &mut Vec<Finding>) {
    let spec = CRATE_RULES
        .iter()
        .find(|r| r.id == "lock-order")
        .expect("lock-order in CRATE_RULES");

    struct Held {
        name: String,
        depth: usize,
        let_bound: bool,
    }
    // First textual occurrence of each (outer, inner) nesting.
    let mut edges: std::collections::BTreeMap<(String, String), (String, usize)> =
        std::collections::BTreeMap::new();

    for (file, lexed) in files {
        let toks = &lexed.tokens;
        let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
        let mut depth = 0usize;
        let mut held: Vec<Held> = Vec::new();
        for (i, (line, tok)) in toks.iter().enumerate() {
            if *line >= limit {
                break;
            }
            match tok {
                Tok::Punct(p) if p == "{" => depth += 1,
                Tok::Punct(p) if p == "}" => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                Tok::Punct(p) if p == ";" => held.retain(|h| h.let_bound),
                Tok::Ident(n)
                    if n == "lock"
                        && i >= 1
                        && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct("."))
                        && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("(")) =>
                {
                    let Some(name) = lock_receiver(toks, i - 1) else {
                        continue;
                    };
                    for h in &held {
                        // Self-nesting of one name is skipped: indexed
                        // lock arrays (`deques[a]` then `deques[b]`)
                        // share a receiver name without sharing a lock.
                        if h.name != name {
                            edges
                                .entry((h.name.clone(), name.clone()))
                                .or_insert_with(|| (file.to_string(), *line));
                        }
                    }
                    let let_bound = stmt_has_let(toks, i);
                    held.push(Held {
                        name,
                        depth,
                        let_bound,
                    });
                }
                _ => {}
            }
        }
    }

    for ((a, b), (f1, l1)) in &edges {
        if a >= b {
            continue;
        }
        if let Some((f2, l2)) = edges.get(&(b.clone(), a.clone())) {
            findings.push(Finding {
                rule: spec.id,
                severity: spec.severity,
                file: f2.clone(),
                line: *l2,
                message: format!(
                    "lock `{a}` taken while holding `{b}` here, but `{f1}:{l1}` nests them the other way (`{a}` then `{b}`); pick one order or justify the cycle"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        HOT_PATH_PREFIXES, QUEUE_SCOPE_PREFIXES, SIM_CRATE_PREFIXES, THREAD_SHARED_PREFIXES,
        WALL_CLOCK_EXEMPT,
    };
    use crate::scan_source;

    #[test]
    fn hashmap_flagged_in_sim_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan_source("crates/npsim/src/engine.rs", src).len(), 1);
        assert_eq!(scan_source("crates/nptrace/src/gen.rs", src).len(), 0);
        assert_eq!(scan_source("crates/npcheck/src/lib.rs", src).len(), 0);
    }

    #[test]
    fn wall_clock_variants() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\nlet r = thread_rng();\nlet x: u8 = rand::random();\n";
        let f = scan_source("crates/detsim/src/time.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(scan_source("crates/experiments/src/bin/timing.rs", src).is_empty());
    }

    #[test]
    fn repository_benchmark_is_wall_clock_exempt() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(scan_source("benchmark/src/x.rs", src).is_empty());
        let f = scan_source("crates/npsim/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "wall-clock"));
    }

    /// Every scope entry names a file or directory that exists, so an
    /// exemption or scope cannot outlive the code it was written for.
    #[test]
    fn every_scope_prefix_names_an_existing_path() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tables = [
            ("SIM_CRATE_PREFIXES", SIM_CRATE_PREFIXES),
            ("HOT_PATH_PREFIXES", HOT_PATH_PREFIXES),
            ("WALL_CLOCK_EXEMPT", WALL_CLOCK_EXEMPT),
            ("THREAD_SHARED_PREFIXES", THREAD_SHARED_PREFIXES),
            ("QUEUE_SCOPE_PREFIXES", QUEUE_SCOPE_PREFIXES),
        ];
        for (table, prefixes) in tables {
            for prefix in prefixes {
                assert!(
                    root.join(prefix).exists(),
                    "{table} entry {prefix:?} names no path under the workspace root"
                );
            }
        }
    }

    #[test]
    fn instant_type_position_not_flagged() {
        let src = "fn f(t: Instant) -> Instant { t }\n";
        assert!(scan_source("crates/npsim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn hot_path_unwrap_and_indexing() {
        let src = "fn f(v: &[u8], m: &M) { let a = m.get(0).unwrap(); let b = v[3]; let c = m.load.expect(\"x\"); }\n";
        let f = scan_source("crates/npsim/src/engine.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        // Same code off the hot path: clean.
        assert!(scan_source("crates/npsim/src/report.rs", src).is_empty());
    }

    #[test]
    fn attributes_and_array_types_not_indexing() {
        // (`vec!` does trip blocking-hot-path here — this test is about
        // the indexing heuristic, so only assert no hot-path-panic.)
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn g() -> [u8; 2] { [0, 1] }\nlet v = vec![1, 2];\n";
        let f = scan_source("crates/npsim/src/engine.rs", src);
        assert!(f.iter().all(|x| x.rule != "hot-path-panic"), "{f:?}");
    }

    #[test]
    fn test_module_exempt_from_hot_path() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n#[cfg(test)]\nmod tests { fn g(v: &[u8]) -> u8 { v.first().copied().unwrap() } }\n";
        let f = scan_source("crates/npsim/src/order.rs", src);
        assert_eq!(f.len(), 1, "only the pre-test indexing: {f:?}");
    }

    #[test]
    fn probe_on_event_allocation_flagged() {
        let src = "impl Probe for P {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent) {\nlet v = Vec::new();\nlet s = x.to_string();\nlet m = format!(\"{t}\");\nlet all: Vec<u32> = it.collect();\n}\n}\n";
        let f = scan_source("crates/npsim/src/probe.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "probe-hot-path"));
    }

    #[test]
    fn probe_on_event_amortized_push_allowed() {
        let src = "impl Probe for P {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent) {\nself.entries.push((t, *ev));\nself.counts.resize(n, 0);\nself.total += 1;\n}\n}\n";
        assert!(scan_source("crates/npsim/src/probe.rs", src).is_empty());
    }

    #[test]
    fn probe_rule_ignores_trait_declarations_and_other_fns() {
        let src = "pub trait Probe {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent);\n}\nfn helper() -> String { format!(\"ok\") }\n";
        assert!(scan_source("crates/npsim/src/probe.rs", src).is_empty());
    }

    #[test]
    fn engine_stage_directory_is_hot_path() {
        let src = "fn f(v: &[u8]) -> u8 { v[3] }\n";
        assert_eq!(
            scan_source("crates/npsim/src/engine/service.rs", src).len(),
            1
        );
        assert_eq!(scan_source("crates/npsim/src/engine.rs", src).len(), 1);
        assert!(scan_source("crates/npsim/src/report.rs", src).is_empty());
    }

    #[test]
    fn float_accum_flags_computed_terms_only() {
        let src = "impl T {\nfn a(&mut self) { self.count += 1; }\nfn b(&mut self, d: f64) { self.sum += d * 2.0; }\nfn c(&mut self, n: u64) { self.total += n; }\n}\n";
        let f = scan_source("crates/detsim/src/stats.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f.first().map(|x| x.line), Some(3));
    }

    #[test]
    fn shared_state_static_mut_and_unsafe_impl() {
        let src = "static mut COUNT: u64 = 0;\nunsafe impl Send for W {}\nunsafe impl<T> Sync for Q<T> {}\n";
        let f = scan_source("crates/core/src/tables.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "shared-state-audit"));
        // Out of the thread-shared scope: clean.
        assert!(scan_source("crates/detsim/src/event.rs", src).is_empty());
    }

    #[test]
    fn shared_state_single_thread_cells() {
        let src = "use std::rc::Rc;\nuse std::cell::{Cell, RefCell};\nstruct S { a: Rc<RefCell<u32>>, b: Cell<bool> }\n";
        let f = scan_source("crates/npfarm/src/pool.rs", src);
        // Rc on line 1; Cell + RefCell in the import; all three in the struct.
        assert_eq!(f.len(), 6, "{f:?}");
    }

    #[test]
    fn shared_state_domain_cell_types_not_flagged() {
        // npfarm's sweep grid has its own `Cell` concept; without a
        // `std::cell` reference the bare name must not trip the audit.
        let src = "pub trait Sweep {\ntype Cell: Clone + Send + Sync;\nfn cells(&self) -> Vec<Self::Cell>;\n}\n";
        assert!(scan_source("crates/npfarm/src/sweep.rs", src).is_empty());
    }

    #[test]
    fn shared_state_ordering_requires_justification() {
        let bare = "a.store(1, Ordering::Release);\n";
        let f = scan_source("crates/core/src/spsc_x.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("npcheck: ordering"));

        let same_line = "a.store(1, Ordering::Release); // npcheck: ordering(pairs with the Acquire load in pop)\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", same_line).is_empty());

        let prev_line =
            "// npcheck: ordering(publish after slot write)\na.store(1, Ordering::Release);\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", prev_line).is_empty());

        // An empty why does not count.
        let empty_why = "a.store(1, Ordering::Relaxed); // npcheck: ordering()\n";
        assert_eq!(scan_source("crates/core/src/spsc_x.rs", empty_why).len(), 1);

        // SeqCst is the conservative default; cmp::Ordering never matches.
        let benign = "a.store(1, Ordering::SeqCst);\nlet o = Ordering::Less;\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", benign).is_empty());
    }

    #[test]
    fn unbounded_queue_constructions_flagged() {
        let src = "let q: VecDeque<u32> = VecDeque::new();\nlet (tx, rx) = mpsc::channel();\nlet x = buf.remove(0);\nbuf.insert(0, x);\n";
        let f = scan_source("crates/npsim/src/queue.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unbounded-queue"));
        // Out of queue scope: clean.
        assert!(scan_source("crates/npfarm/src/pool2.rs", src).is_empty());
    }

    #[test]
    fn unbounded_queue_bounded_forms_pass() {
        let src = "let q = VecDeque::with_capacity(cap);\nlet (tx, rx) = mpsc::sync_channel(64);\nlet x = buf.remove(idx);\nbuf.insert(1, x);\n";
        assert!(scan_source("crates/npsim/src/queue.rs", src).is_empty());
    }

    #[test]
    fn blocking_hot_path_flags_locks_io_and_alloc() {
        let src = "fn step(&mut self) {\nlet g = self.stats.lock();\nthread::sleep(d);\nlet s = format!(\"x\");\nlet b = Box::new(1);\nprintln!(\"hi\");\nlet v: Vec<u32> = it.collect();\n}\n";
        let f = scan_source("crates/npsim/src/engine/stage.rs", src);
        assert_eq!(f.len(), 6, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "blocking-hot-path"));
        // Same code off the hot path: clean.
        assert!(scan_source("crates/npsim/src/report2.rs", src).is_empty());
    }

    #[test]
    fn blocking_hot_path_exempts_constructors() {
        let src = "impl S {\nfn new(n: usize) -> Self {\nlet slots: Vec<u64> = (0..n).collect();\nSelf { slots, name: format!(\"s{n}\") }\n}\nfn with_capacity(n: usize) -> Self { Self { slots: vec![0; n], name: String::from(\"s\") } }\nfn step(&mut self) { self.slots.push(0); }\n}\n";
        assert!(scan_source("crates/npsim/src/engine/stage.rs", src).is_empty());
    }

    #[test]
    fn spsc_is_hot_path_scoped() {
        let src = "fn push(&mut self) { let s = x.to_string(); }\n";
        assert_eq!(scan_source("crates/core/src/spsc.rs", src).len(), 1);
    }

    #[test]
    fn scr_is_hot_path_scoped() {
        // SCR's schedule() runs per packet; panics and allocation carry
        // the same discipline as the engine stages.
        let src =
            "fn schedule(&mut self) { let c = q.first().unwrap(); let s = format!(\"{c}\"); }\n";
        let f = scan_source("crates/core/src/scr.rs", src);
        assert!(f.iter().any(|x| x.rule == "hot-path-panic"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "blocking-hot-path"), "{f:?}");
    }

    #[test]
    fn lock_order_inversion_within_a_crate() {
        let a = "fn a(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\n";
        let b = "fn b(&self) { let g = self.stats.lock(); let h = self.table.lock(); }\n";
        // Same crate, two files: inversion reported once.
        let f = crate::scan_files(&[
            ("crates/npfarm/src/a.rs".to_string(), a.to_string()),
            ("crates/npfarm/src/b.rs".to_string(), b.to_string()),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].message.contains("stats") && f[0].message.contains("table"));
        // Different crates: each is internally consistent, no finding.
        let f = crate::scan_files(&[
            ("crates/npfarm/src/a.rs".to_string(), a.to_string()),
            ("crates/npsim/src/b.rs".to_string(), b.to_string()),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_order_consistent_nesting_is_clean() {
        let src = "fn a(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\nfn b(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_order_temporary_guard_released_at_statement_end() {
        // The first lock is a temporary (dropped at `;`), so the second
        // acquisition does not nest inside it.
        let src = "fn a(&self) { self.table.lock().push(1); let h = self.stats.lock(); }\nfn b(&self) { self.stats.lock().push(1); let h = self.table.lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_order_indexed_receivers_and_self_nesting() {
        // `deques[a]` / `deques[b]` share a receiver name; self-nesting
        // is deliberately not reported (distinct elements of a lock
        // array), and the indexed form resolves to the field name.
        let src =
            "fn steal(&self) { let g = self.deques[a].lock(); let h = self.deques[b].lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn unbatched_hot_loop_flags_scalar_calls_in_for_loops() {
        let src = "fn classify(&mut self) {\nfor k in &self.keys {\nlet h = crc16_ccitt(k);\nlet c = self.table.lookup(h);\nself.out.push(c);\n}\n}\n";
        let f = scan_source("crates/npsim/src/engine/batch.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unbatched-hot-loop"));
        assert!(f[0].message.contains("crc16_ccitt_batch"));
        assert!(f[1].message.contains("lookup_batch"));
        // Same code off the hot path: clean.
        assert!(scan_source("crates/npsim/src/report.rs", src).is_empty());
    }

    #[test]
    fn unbatched_hot_loop_ignores_batch_calls_and_impl_for() {
        // The batch forms and `impl Trait for T` bodies must not match.
        let src = "impl Stage for Dispatch {\nfn go(&mut self) { crc16_ccitt_batch(&self.keys, &mut self.hashes); self.table.lookup_batch(&self.flows, &mut self.cores); }\n}\n";
        assert!(scan_source("crates/npsim/src/engine/batch.rs", src).is_empty());
        // A lone per-packet call outside any loop is the scalar path's
        // legitimate shape.
        let single = "fn one(&mut self, k: &[u8; 13]) -> u16 { crc16_ccitt(k) }\n";
        assert!(scan_source("crates/npsim/src/engine/batch.rs", single).is_empty());
    }

    #[test]
    fn source_rs_is_hot_path_scoped() {
        let src = "fn draw(&mut self) { let g = self.gaps.first().unwrap(); }\n";
        assert_eq!(scan_source("crates/npsim/src/source.rs", src).len(), 1);
    }

    #[test]
    fn all_rules_covers_both_tables() {
        let metas = crate::rules::all_rules();
        assert_eq!(
            metas.len(),
            crate::rules::RULES.len() + crate::rules::CRATE_RULES.len()
        );
        assert!(metas
            .iter()
            .any(|m| m.id == "lock-order" && m.pass == crate::rules::Pass::Crate));
        let mut ids: Vec<&str> = metas.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), metas.len(), "rule ids must be unique");
    }
}
