//! Typed scenario schema: validation of the parsed TOML tree into
//! strongly typed structs, and compilation into the same
//! [`DeepConfig`] / experiment parameter structs the registry
//! binaries use.
//!
//! Every validation failure produces a stable, exact error message
//! (asserted verbatim by `tests/scenario_fixtures/`), of the form
//! `<table>.<key>: <what>` or `<table>: <what>`.

use deep_core::config::DeepConfig;
use deep_core::resilience::ResilienceParams;
use deep_faults::plan::{Domain, FaultEvent, FaultKind, FaultPlan};
use deep_io::ckptlog::FailureSeverity;
use deep_json::Value;
use deep_simkit::SimDuration;

/// A fully validated scenario document.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (1..=64 characters).
    pub name: String,
    /// Master seed for every stochastic component.
    pub seed: u64,
    /// Replica count for app-skeleton evaluations.
    pub replicas: u32,
    /// Machine shape (preset plus overrides).
    pub machine: MachineSpec,
    /// Optional application skeleton to evaluate.
    pub app: Option<AppSpec>,
    /// Sweep axes (cross product, declaration order, first axis
    /// outermost).
    pub sweep: Vec<SweepAxis>,
    /// Declarative fault plan sources.
    pub faults: FaultSpec,
    /// Optional synthetic job trace replayed through `deep_resmgr`.
    pub trace: Option<TraceSpec>,
    /// The parsed document, kept for digesting/caching.
    pub doc: Value,
}

/// Machine preset plus overrides, resolvable to a [`DeepConfig`].
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Preset name: `small`, `medium`, or `prototype`.
    pub preset: String,
    /// Override for `DeepConfig::n_cluster`.
    pub n_cluster: Option<u32>,
    /// Override for the Booster torus dimensions.
    pub booster_dims: Option<(u32, u32, u32)>,
    /// Override for the number of Booster interface nodes.
    pub n_bi: Option<u32>,
    /// Override for the Booster link error rate.
    pub booster_link_error_rate: Option<f64>,
}

impl MachineSpec {
    /// Resolve the preset and apply overrides.
    pub fn config(&self) -> DeepConfig {
        let mut cfg = match self.preset.as_str() {
            "small" => DeepConfig::small(),
            "medium" => DeepConfig::medium(),
            _ => DeepConfig::prototype(),
        };
        if let Some(n) = self.n_cluster {
            cfg.n_cluster = n;
        }
        if let Some(d) = self.booster_dims {
            cfg.booster_dims = d;
        }
        if let Some(n) = self.n_bi {
            cfg.n_bi = n;
        }
        if let Some(e) = self.booster_link_error_rate {
            cfg.booster_link_error_rate = e;
        }
        cfg
    }
}

/// An application skeleton the scenario evaluates: either the
/// checkpoint/restart maths or the full-DES weak-scaling run.
#[derive(Debug, Clone)]
pub enum AppSpec {
    /// `skeleton = "resilience"` — checkpoint/restart efficiency.
    Resilience(ResilienceApp),
    /// `skeleton = "scalability"` — the batch-scheduled full-DES
    /// weak-scaling skeleton (`deep_bench::des_scaling`).
    Scalability(ScalabilityApp),
}

/// The `scalability` app skeleton: the F09 communication skeleton
/// (ring halo + allreduce, optionally plus a pairwise all-to-all)
/// simulated end-to-end on the discrete-event engine over a full-size
/// IB fat tree. Deterministic — `replicas` is ignored — and the
/// machine block only names the scenario's context (the fabric is
/// sized from the rank count).
#[derive(Debug, Clone)]
pub struct ScalabilityApp {
    /// Base rank count (power of two), used when no `ranks` sweep axis
    /// is declared.
    pub ranks: u32,
    /// Iterations to simulate per point.
    pub iters: u32,
    /// Add the complex class's pairwise all-to-all phase.
    pub complex: bool,
}

/// The `resilience` app skeleton: checkpoint/restart efficiency under
/// node failures, identical maths to the `f03b_resilience` registry
/// experiment.
#[derive(Debug, Clone)]
pub struct ResilienceApp {
    /// Total useful work per run, seconds.
    pub work_s: f64,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Checkpoint write time, seconds.
    pub checkpoint_s: f64,
    /// Restart (rework setup) time, seconds.
    pub restart_s: f64,
    /// Node count; defaults to the machine total (cluster + booster).
    pub n_nodes: Option<u64>,
    /// Checkpoint intervals to evaluate per sweep point.
    pub intervals: Vec<IntervalSpec>,
}

/// A checkpoint interval: absolute seconds or relative to the Daly
/// optimum of the point being evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalSpec {
    /// A fixed interval in seconds.
    Seconds(f64),
    /// `daly * factor`, computed per sweep point.
    DalyTimes(f64),
    /// `daly / divisor`, computed per sweep point (kept distinct from
    /// `DalyTimes` so `daly/4` is bitwise `daly / 4.0`, exactly as the
    /// registry experiment computes it).
    DalyOver(f64),
}

impl IntervalSpec {
    /// Resolve against a point's Daly-optimum interval.
    pub fn resolve(&self, daly: f64) -> f64 {
        match *self {
            IntervalSpec::Seconds(s) => s,
            IntervalSpec::DalyTimes(k) => daly * k,
            IntervalSpec::DalyOver(k) => daly / k,
        }
    }
}

/// One sweep axis: a parameter name plus its values.
#[derive(Debug, Clone)]
pub struct SweepAxis {
    /// Which [`ResilienceParams`] field the axis varies.
    pub param: String,
    /// The concrete values, in evaluation order.
    pub values: Vec<f64>,
}

/// Declarative fault-plan sources, compiled by
/// [`Scenario::fault_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Explicit events.
    pub events: Vec<FaultEvent>,
    /// Seeded Poisson crash process, if declared.
    pub poisson: Option<PoissonSpec>,
    /// Periodic link-quality flaps, if declared.
    pub link_flaps: Option<FlapSpec>,
}

/// `[faults.poisson]`: seeded Poisson node-crash process.
#[derive(Debug, Clone)]
pub struct PoissonSpec {
    /// Failure domain.
    pub domain: Domain,
    /// Node count; defaults to the domain's machine size.
    pub n_nodes: Option<u32>,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Schedule horizon, seconds.
    pub horizon_s: f64,
    /// Severity mix `[transient, node, multi]`.
    pub weights: [f64; 3],
    /// RNG stream selector (combined with the scenario seed).
    pub stream: u64,
}

/// `[faults.link_flaps]`: periodic link-degrade windows.
#[derive(Debug, Clone)]
pub struct FlapSpec {
    /// Failure domain.
    pub domain: Domain,
    /// First flap onset, seconds.
    pub first_s: f64,
    /// Flap period, seconds.
    pub period_s: f64,
    /// Error rate during a flap.
    pub error_rate: f64,
    /// Flap duration, seconds.
    pub flap_s: f64,
    /// Number of flaps.
    pub count: u32,
}

/// `[trace]`: a synthetic job trace replayed through `deep_resmgr`.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Number of jobs in the trace.
    pub jobs: u32,
    /// Mean job interarrival time, seconds.
    pub mean_interarrival_s: f64,
    /// Maximum cluster nodes a job may request.
    pub max_cn: u32,
    /// Maximum booster nodes a phase may request.
    pub max_bn: u32,
    /// Mean cluster compute time per phase, seconds.
    pub mean_cn_time_s: f64,
    /// Mean booster offload time per phase, seconds.
    pub mean_bn_time_s: f64,
    /// Maximum phases per job.
    pub max_phases: u32,
    /// Fraction of jobs that never offload.
    pub pure_cluster_fraction: f64,
    /// Allocation policy: `static`, `dynamic`, or `backfill`.
    pub policy: String,
    /// Spare booster nodes held for failure replacement.
    pub spares: u32,
    /// Utilisation sampling period, seconds.
    pub sample_every_s: f64,
}

impl Scenario {
    /// Parse and validate a TOML scenario document.
    pub fn from_toml_str(input: &str) -> Result<Scenario, String> {
        Scenario::from_value(&crate::toml::parse(input)?)
    }

    /// Validate a parsed document (TOML- or JSON-sourced: `deep-serve`
    /// jobs arrive as JSON).
    pub fn from_value(doc: &Value) -> Result<Scenario, String> {
        let Value::Object(sections) = doc else {
            return Err("scenario document must be a table".to_string());
        };
        for (key, _) in sections {
            if !matches!(
                key.as_str(),
                "scenario" | "machine" | "app" | "sweep" | "faults" | "trace"
            ) {
                return Err(format!("unknown section '{key}'"));
            }
        }

        let meta = require_table(doc, "scenario")?;
        check_keys(meta, "scenario", &["name", "seed", "replicas"])?;
        let name = require_str(meta, "scenario", "name")?;
        if name.is_empty() || name.len() > 64 {
            return Err("scenario.name: must be 1..=64 characters".to_string());
        }
        let seed = require_u64(meta, "scenario", "seed")?;
        let replicas = opt_u64(meta, "scenario", "replicas")?.unwrap_or(1);
        if !(1..=1024).contains(&replicas) {
            return Err("scenario.replicas: must be in 1..=1024".to_string());
        }

        let machine = parse_machine(doc)?;
        let app = match doc.get("app") {
            None => None,
            Some(_) => Some(parse_app(require_table(doc, "app")?)?),
        };
        let sweep = parse_sweep(doc, app.as_ref())?;
        if !sweep.is_empty() && app.is_none() {
            return Err("sweep requires an 'app' block".to_string());
        }
        let faults = parse_faults(doc)?;
        let trace = match doc.get("trace") {
            None => None,
            Some(_) => Some(parse_trace(require_table(doc, "trace")?)?),
        };
        if app.is_none() && trace.is_none() {
            return Err("scenario must define an 'app' or a 'trace' block".to_string());
        }

        let sc = Scenario {
            name: name.to_string(),
            seed,
            replicas: replicas as u32,
            machine,
            app,
            sweep,
            faults,
            trace,
            doc: doc.clone(),
        };
        sc.sweep_points()?; // surface point-count errors at validation time
        sc.check_scalability_budget()?;
        Ok(sc)
    }

    /// Reject scalability runs whose simulated message count would be
    /// unreasonably large — scenario documents arrive from untrusted
    /// daemon peers, and the complex class is quadratic in ranks.
    fn check_scalability_budget(&self) -> Result<(), String> {
        let Some(AppSpec::Scalability(app)) = &self.app else {
            return Ok(());
        };
        let mut est: u128 = 0;
        for &r in &self.scalability_points() {
            let (r, log2) = (r as u128, r.trailing_zeros() as u128);
            let mut per_iter = (2 + log2) * r; // two halo dirs + allreduce rounds
            if app.complex {
                per_iter += r * (r - 1); // pairwise all-to-all rounds
            }
            est += per_iter * app.iters as u128;
        }
        if est > 1 << 28 {
            return Err(
                "app: scalability run too large (estimated messages exceed 2^28)".to_string(),
            );
        }
        Ok(())
    }

    /// Rank counts the scalability skeleton evaluates: the `ranks`
    /// sweep axis values in declaration order, or the app's base rank
    /// count when no axis is declared. Empty for other skeletons.
    pub fn scalability_points(&self) -> Vec<u32> {
        let Some(AppSpec::Scalability(app)) = &self.app else {
            return Vec::new();
        };
        match self.sweep.iter().find(|a| a.param == "ranks") {
            Some(axis) => axis.values.iter().map(|&v| v as u32).collect(),
            None => vec![app.ranks],
        }
    }

    /// The cross product of all sweep axes as `ResilienceParams`
    /// (first axis outermost). With no axes, a single point built from
    /// the app block.
    pub fn sweep_points(&self) -> Result<Vec<ResilienceParams>, String> {
        let Some(AppSpec::Resilience(app)) = &self.app else {
            return Ok(Vec::new());
        };
        let cfg = self.machine.config();
        let base = ResilienceParams {
            work_s: app.work_s,
            n_nodes: app
                .n_nodes
                .unwrap_or(u64::from(cfg.n_cluster) + u64::from(cfg.n_booster())),
            mtbf_node_s: app.mtbf_node_s,
            checkpoint_s: app.checkpoint_s,
            restart_s: app.restart_s,
        };
        // Bound the cross product from axis cardinalities alone,
        // before any point vector is allocated: documents arrive from
        // untrusted daemon peers, and a pair of large `values` axes
        // must never drive the materialization below.
        let mut total: usize = 1;
        for axis in &self.sweep {
            total = total
                .checked_mul(axis.values.len())
                .filter(|&t| t <= 4096)
                .ok_or_else(|| "sweep: too many points (cross product exceeds 4096)".to_string())?;
        }
        let mut points = Vec::with_capacity(total);
        points.push(base);
        for axis in &self.sweep {
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for p in &points {
                for &v in &axis.values {
                    let mut q = *p;
                    match axis.param.as_str() {
                        "n_nodes" => q.n_nodes = v as u64,
                        "work_s" => q.work_s = v,
                        "mtbf_node_s" => q.mtbf_node_s = v,
                        "checkpoint_s" => q.checkpoint_s = v,
                        "restart_s" => q.restart_s = v,
                        _ => unreachable!("axis params validated in parse_sweep"),
                    }
                    next.push(q);
                }
            }
            points = next;
        }
        Ok(points)
    }

    /// Compile the declarative fault sources into one merged, ordered
    /// [`FaultPlan`].
    pub fn fault_plan(&self) -> FaultPlan {
        let cfg = self.machine.config();
        let mut plan = FaultPlan::new(self.faults.events.clone());
        if let Some(p) = &self.faults.poisson {
            let n_nodes = p.n_nodes.unwrap_or(match p.domain {
                Domain::Cluster => cfg.n_cluster,
                Domain::Booster => cfg.n_booster(),
            });
            plan = plan.merge(FaultPlan::poisson_crashes(
                p.domain,
                n_nodes,
                p.mtbf_node_s,
                p.horizon_s,
                p.weights,
                self.seed,
                p.stream,
            ));
        }
        if let Some(f) = &self.faults.link_flaps {
            plan = plan.merge(FaultPlan::link_flaps(
                f.domain,
                f.first_s,
                f.period_s,
                f.error_rate,
                f.flap_s,
                f.count,
            ));
        }
        plan
    }
}

// ---------------------------------------------------------------
// field helpers (exact error strings live here)
// ---------------------------------------------------------------

fn require_table<'v>(doc: &'v Value, name: &str) -> Result<&'v Value, String> {
    match doc.get(name) {
        Some(v @ Value::Object(_)) => Ok(v),
        Some(_) => Err(format!("'{name}' must be a table")),
        None => Err(format!("missing required section '{name}'")),
    }
}

fn check_keys(table: &Value, section: &str, allowed: &[&str]) -> Result<(), String> {
    let Value::Object(kv) = table else {
        unreachable!("check_keys is only called on tables")
    };
    for (key, _) in kv {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{section}: unknown key '{key}'"));
        }
    }
    Ok(())
}

fn require_str<'v>(table: &'v Value, section: &str, key: &str) -> Result<&'v str, String> {
    match table.get(key) {
        Some(Value::String(s)) => Ok(s),
        Some(_) => Err(format!("{section}.{key}: expected a string")),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn require_u64(table: &Value, section: &str, key: &str) -> Result<u64, String> {
    match opt_u64(table, section, key)? {
        Some(v) => Ok(v),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn opt_u64(table: &Value, section: &str, key: &str) -> Result<Option<u64>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(format!("{section}.{key}: expected a non-negative integer")),
        },
    }
}

fn require_f64(table: &Value, section: &str, key: &str) -> Result<f64, String> {
    match opt_f64(table, section, key)? {
        Some(v) => Ok(v),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn opt_f64(table: &Value, section: &str, key: &str) -> Result<Option<f64>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Number(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("{section}.{key}: expected a number")),
    }
}

fn positive_f64(table: &Value, section: &str, key: &str) -> Result<f64, String> {
    let v = require_f64(table, section, key)?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("{section}.{key}: must be finite and > 0"));
    }
    Ok(v)
}

fn range_u64(
    table: &Value,
    section: &str,
    key: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<u64>, String> {
    match opt_u64(table, section, key)? {
        None => Ok(None),
        Some(v) if (lo..=hi).contains(&v) => Ok(Some(v)),
        Some(_) => Err(format!("{section}.{key}: must be in {lo}..={hi}")),
    }
}

fn parse_domain(table: &Value, section: &str) -> Result<Domain, String> {
    match require_str(table, section, "domain")? {
        "cluster" => Ok(Domain::Cluster),
        "booster" => Ok(Domain::Booster),
        other => Err(format!(
            "{section}.domain: unknown domain '{other}' (use 'cluster' or 'booster')"
        )),
    }
}

// ---------------------------------------------------------------
// section parsers
// ---------------------------------------------------------------

fn parse_machine(doc: &Value) -> Result<MachineSpec, String> {
    let table = require_table(doc, "machine")?;
    check_keys(
        table,
        "machine",
        &[
            "preset",
            "n_cluster",
            "booster_dims",
            "n_bi",
            "booster_link_error_rate",
        ],
    )?;
    let preset = require_str(table, "machine", "preset")?;
    if !matches!(preset, "small" | "medium" | "prototype") {
        return Err(format!(
            "machine: unknown preset '{preset}' (use 'small', 'medium', 'prototype')"
        ));
    }
    let n_cluster = range_u64(table, "machine", "n_cluster", 1, 1_048_576)?;
    let n_bi = range_u64(table, "machine", "n_bi", 1, 4096)?;
    let booster_dims = match table.get("booster_dims") {
        None => None,
        Some(Value::Array(items)) if items.len() == 3 => {
            let mut dims = [0u32; 3];
            for (i, item) in items.iter().enumerate() {
                match item.as_u64() {
                    Some(v) if (1..=1024).contains(&v) => dims[i] = v as u32,
                    _ => {
                        return Err(
                            "machine.booster_dims: each dimension must be in 1..=1024".to_string()
                        )
                    }
                }
            }
            Some((dims[0], dims[1], dims[2]))
        }
        Some(_) => return Err("machine.booster_dims: expected an array of 3 integers".to_string()),
    };
    let booster_link_error_rate = match opt_f64(table, "machine", "booster_link_error_rate")? {
        None => None,
        Some(v) if (0.0..=1.0).contains(&v) => Some(v),
        Some(_) => return Err("machine.booster_link_error_rate: must be in 0..=1".to_string()),
    };
    Ok(MachineSpec {
        preset: preset.to_string(),
        n_cluster: n_cluster.map(|v| v as u32),
        booster_dims,
        n_bi: n_bi.map(|v| v as u32),
        booster_link_error_rate,
    })
}

fn parse_app(table: &Value) -> Result<AppSpec, String> {
    match require_str(table, "app", "skeleton")? {
        "resilience" => Ok(AppSpec::Resilience(parse_resilience_app(table)?)),
        "scalability" => Ok(AppSpec::Scalability(parse_scalability_app(table)?)),
        skeleton => Err(format!(
            "app: unknown skeleton '{skeleton}' (use 'resilience' or 'scalability')"
        )),
    }
}

fn parse_scalability_app(table: &Value) -> Result<ScalabilityApp, String> {
    check_keys(table, "app", &["skeleton", "ranks", "iters", "complex"])?;
    let ranks = match range_u64(table, "app", "ranks", 2, 262_144)? {
        None => 64,
        Some(r) if r.is_power_of_two() => r as u32,
        Some(_) => return Err("app.ranks: must be a power of two".to_string()),
    };
    let iters = range_u64(table, "app", "iters", 1, 8)?.unwrap_or(1) as u32;
    let complex = match table.get("complex") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("app.complex: expected a boolean".to_string()),
    };
    Ok(ScalabilityApp {
        ranks,
        iters,
        complex,
    })
}

fn parse_resilience_app(table: &Value) -> Result<ResilienceApp, String> {
    check_keys(
        table,
        "app",
        &[
            "skeleton",
            "work_s",
            "mtbf_node_s",
            "checkpoint_s",
            "restart_s",
            "n_nodes",
            "intervals",
        ],
    )?;
    let intervals = match table.get("intervals") {
        None => vec![IntervalSpec::DalyTimes(1.0)],
        Some(Value::Array(items)) if !items.is_empty() => {
            // Bounds the execution-time work-unit vector (sweep points
            // × intervals) alongside the 4096-point sweep cap.
            if items.len() > 64 {
                return Err("app.intervals: must have at most 64 entries".to_string());
            }
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(parse_interval(item)?);
            }
            out
        }
        Some(Value::Array(_)) => {
            return Err("app.intervals: must not be empty".to_string());
        }
        Some(_) => return Err("app.intervals: expected an array".to_string()),
    };
    Ok(ResilienceApp {
        work_s: positive_f64(table, "app", "work_s")?,
        mtbf_node_s: positive_f64(table, "app", "mtbf_node_s")?,
        checkpoint_s: positive_f64(table, "app", "checkpoint_s")?,
        restart_s: positive_f64(table, "app", "restart_s")?,
        n_nodes: range_u64(table, "app", "n_nodes", 1, 100_000_000)?,
        intervals,
    })
}

fn parse_interval(item: &Value) -> Result<IntervalSpec, String> {
    let bad = |s: &str| {
        format!("app: unknown interval '{s}' (use seconds, 'daly', 'daly*N' or 'daly/N')")
    };
    match item {
        Value::Number(n) if n.is_finite() && *n > 0.0 => Ok(IntervalSpec::Seconds(*n)),
        Value::Number(n) => Err(bad(&format!("{n}"))),
        Value::String(s) => {
            if s == "daly" {
                return Ok(IntervalSpec::DalyTimes(1.0));
            }
            if let Some(rest) = s.strip_prefix("daly*") {
                if let Ok(k) = rest.parse::<f64>() {
                    if k.is_finite() && k > 0.0 {
                        return Ok(IntervalSpec::DalyTimes(k));
                    }
                }
            }
            if let Some(rest) = s.strip_prefix("daly/") {
                if let Ok(k) = rest.parse::<f64>() {
                    if k.is_finite() && k > 0.0 {
                        return Ok(IntervalSpec::DalyOver(k));
                    }
                }
            }
            Err(bad(s))
        }
        _ => Err(bad("<non-scalar>")),
    }
}

fn parse_sweep(doc: &Value, app: Option<&AppSpec>) -> Result<Vec<SweepAxis>, String> {
    let Some(sweep) = doc.get("sweep") else {
        return Ok(Vec::new());
    };
    check_keys(sweep, "sweep", &["axes"])?;
    let axes = match sweep.get("axes") {
        None => return Ok(Vec::new()),
        Some(Value::Array(items)) => items,
        Some(_) => return Err("sweep.axes: expected an array of tables".to_string()),
    };
    let scalability = matches!(app, Some(AppSpec::Scalability(_)));
    let mut out: Vec<SweepAxis> = Vec::with_capacity(axes.len());
    for axis in axes {
        let param = require_str(axis, "sweep axis", "param")?;
        let section = format!("sweep axis '{param}'");
        check_keys(axis, &section, &["param", "values", "grid"])?;
        if !matches!(
            param,
            "n_nodes" | "work_s" | "mtbf_node_s" | "checkpoint_s" | "restart_s" | "ranks"
        ) {
            return Err(format!("sweep axis '{param}': unknown parameter"));
        }
        if (param == "ranks") != scalability {
            return Err(if scalability {
                format!("sweep axis '{param}': the 'scalability' skeleton only sweeps 'ranks'")
            } else {
                "sweep axis 'ranks': requires the 'scalability' skeleton".to_string()
            });
        }
        if out.iter().any(|a| a.param == param) {
            return Err(format!("sweep: duplicate axis '{param}'"));
        }
        let has_values = axis.get("values").is_some();
        let has_grid = axis.get("grid").is_some();
        if has_values && has_grid {
            return Err(format!(
                "sweep axis '{param}': give either 'values' or 'grid', not both"
            ));
        }
        let values = if has_values {
            match axis.get("values") {
                Some(Value::Array(items)) if !items.is_empty() => {
                    let mut vs = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Value::Number(n) if n.is_finite() => vs.push(*n),
                            _ => {
                                return Err(format!(
                                    "sweep axis '{param}': values must be finite numbers"
                                ))
                            }
                        }
                    }
                    vs
                }
                Some(Value::Array(_)) => {
                    return Err(format!("sweep axis '{param}': 'values' must not be empty"))
                }
                _ => return Err(format!("sweep axis '{param}': 'values' must be an array")),
            }
        } else if has_grid {
            let grid = axis
                .get("grid")
                .ok_or_else(|| format!("sweep axis '{param}': 'grid' must be a table"))?;
            if !matches!(grid, Value::Object(_)) {
                return Err(format!("sweep axis '{param}': 'grid' must be a table"));
            }
            check_keys(
                grid,
                &format!("{section}.grid"),
                &["start", "step", "count"],
            )?;
            let start = require_f64(grid, &section, "start")?;
            let step = require_f64(grid, &section, "step")?;
            let count = require_u64(grid, &section, "count")?;
            if !start.is_finite() || !step.is_finite() {
                return Err(format!("sweep axis '{param}': grid bounds must be finite"));
            }
            if step == 0.0 && count > 1 {
                return Err(format!(
                    "sweep axis '{param}': grid 'step' must be non-zero (the axis never advances)"
                ));
            }
            if !(1..=4096).contains(&count) {
                return Err(format!(
                    "sweep axis '{param}': grid 'count' must be in 1..=4096"
                ));
            }
            (0..count).map(|i| start + step * i as f64).collect()
        } else {
            return Err(format!("sweep axis '{param}': needs 'values' or 'grid'"));
        };
        if param == "ranks" {
            for &v in &values {
                let ok = v.fract() == 0.0
                    && (2.0..=262_144.0).contains(&v)
                    && (v as u64).is_power_of_two();
                if !ok {
                    return Err(
                        "sweep axis 'ranks': values must be powers of two in 2..=262144"
                            .to_string(),
                    );
                }
            }
        } else if param == "n_nodes" {
            for &v in &values {
                if v.fract() != 0.0 || v < 1.0 {
                    return Err(
                        "sweep axis 'n_nodes': values must be positive integers".to_string()
                    );
                }
            }
        } else {
            for &v in &values {
                if v <= 0.0 {
                    return Err(format!("sweep axis '{param}': values must be > 0"));
                }
            }
        }
        out.push(SweepAxis {
            param: param.to_string(),
            values,
        });
    }
    Ok(out)
}

fn parse_faults(doc: &Value) -> Result<FaultSpec, String> {
    let Some(faults) = doc.get("faults") else {
        return Ok(FaultSpec::default());
    };
    check_keys(faults, "faults", &["events", "poisson", "link_flaps"])?;
    let mut spec = FaultSpec::default();
    if let Some(events) = faults.get("events") {
        let Value::Array(items) = events else {
            return Err("faults.events: expected an array of tables".to_string());
        };
        for item in items {
            spec.events.push(parse_fault_event(item)?);
        }
    }
    if let Some(p) = faults.get("poisson") {
        if !matches!(p, Value::Object(_)) {
            return Err("'faults.poisson' must be a table".to_string());
        }
        check_keys(
            p,
            "faults.poisson",
            &[
                "domain",
                "n_nodes",
                "mtbf_node_s",
                "horizon_s",
                "weights",
                "stream",
            ],
        )?;
        let weights = match p.get("weights") {
            None => [0.7, 0.25, 0.05],
            Some(Value::Array(items)) if items.len() == 3 => {
                let mut w = [0.0f64; 3];
                for (i, item) in items.iter().enumerate() {
                    match item {
                        Value::Number(n) if n.is_finite() && *n >= 0.0 => w[i] = *n,
                        _ => {
                            return Err("faults.poisson.weights: must be 3 non-negative numbers"
                                .to_string())
                        }
                    }
                }
                w
            }
            Some(_) => {
                return Err("faults.poisson.weights: must be 3 non-negative numbers".to_string())
            }
        };
        spec.poisson = Some(PoissonSpec {
            domain: parse_domain(p, "faults.poisson")?,
            n_nodes: range_u64(p, "faults.poisson", "n_nodes", 1, 10_000_000)?.map(|v| v as u32),
            mtbf_node_s: positive_f64(p, "faults.poisson", "mtbf_node_s")?,
            horizon_s: positive_f64(p, "faults.poisson", "horizon_s")?,
            weights,
            stream: opt_u64(p, "faults.poisson", "stream")?.unwrap_or(1),
        });
    }
    if let Some(f) = faults.get("link_flaps") {
        if !matches!(f, Value::Object(_)) {
            return Err("'faults.link_flaps' must be a table".to_string());
        }
        check_keys(
            f,
            "faults.link_flaps",
            &[
                "domain",
                "first_s",
                "period_s",
                "error_rate",
                "flap_s",
                "count",
            ],
        )?;
        let error_rate = require_f64(f, "faults.link_flaps", "error_rate")?;
        if !(0.0..=1.0).contains(&error_rate) {
            return Err("faults.link_flaps.error_rate: must be in 0..=1".to_string());
        }
        spec.link_flaps = Some(FlapSpec {
            domain: parse_domain(f, "faults.link_flaps")?,
            first_s: positive_f64(f, "faults.link_flaps", "first_s")?,
            period_s: positive_f64(f, "faults.link_flaps", "period_s")?,
            error_rate,
            flap_s: positive_f64(f, "faults.link_flaps", "flap_s")?,
            count: range_u64(f, "faults.link_flaps", "count", 1, 100_000)?
                .ok_or_else(|| "faults.link_flaps: missing required key 'count'".to_string())?
                as u32,
        });
    }
    Ok(spec)
}

fn parse_fault_event(item: &Value) -> Result<FaultEvent, String> {
    if !matches!(item, Value::Object(_)) {
        return Err("faults.events: each event must be a table".to_string());
    }
    let kind_name = require_str(item, "faults.events", "kind")?;
    let at_s = positive_f64(item, "faults.events", "at_s")?;
    let section = format!("faults.events[{kind_name}]");
    let kind = match kind_name {
        "node_crash" => {
            check_keys(item, &section, &["kind", "at_s", "domain", "node", "severity"])?;
            let severity = match item.get("severity").and_then(|v| v.as_str()) {
                None | Some("node") => FailureSeverity::NodeLoss,
                Some("transient") => FailureSeverity::Transient,
                Some("multi") => FailureSeverity::MultiNodeLoss,
                Some(other) => {
                    return Err(format!(
                        "{section}.severity: unknown severity '{other}' (use 'transient', 'node', 'multi')"
                    ))
                }
            };
            FaultKind::NodeCrash {
                domain: parse_domain(item, &section)?,
                node: require_u64(item, &section, "node")? as u32,
                severity,
            }
        }
        "link_degrade" => {
            check_keys(
                item,
                &section,
                &["kind", "at_s", "domain", "error_rate", "duration_s"],
            )?;
            let error_rate = require_f64(item, &section, "error_rate")?;
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("{section}.error_rate: must be in 0..=1"));
            }
            FaultKind::LinkDegrade {
                domain: parse_domain(item, &section)?,
                error_rate,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "nic_drop" => {
            check_keys(
                item,
                &section,
                &["kind", "at_s", "domain", "node", "drop_prob", "duration_s"],
            )?;
            let drop_prob = require_f64(item, &section, "drop_prob")?;
            if !(0.0..=1.0).contains(&drop_prob) {
                return Err(format!("{section}.drop_prob: must be in 0..=1"));
            }
            FaultKind::NicDrop {
                domain: parse_domain(item, &section)?,
                node: require_u64(item, &section, "node")? as u32,
                drop_prob,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "bi_fail" => {
            check_keys(item, &section, &["kind", "at_s", "index", "duration_s"])?;
            FaultKind::BiFail {
                index: require_u64(item, &section, "index")? as usize,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "pfs_stall" => {
            check_keys(item, &section, &["kind", "at_s", "server", "bytes"])?;
            FaultKind::PfsStall {
                server: require_u64(item, &section, "server")? as usize,
                bytes: require_u64(item, &section, "bytes")?,
            }
        }
        other => {
            return Err(format!(
                "faults.events: unknown kind '{other}' (use 'node_crash', 'link_degrade', 'nic_drop', 'bi_fail', 'pfs_stall')"
            ))
        }
    };
    Ok(FaultEvent {
        at: SimDuration::from_secs_f64(at_s),
        kind,
    })
}

fn parse_trace(table: &Value) -> Result<TraceSpec, String> {
    check_keys(
        table,
        "trace",
        &[
            "jobs",
            "mean_interarrival_s",
            "max_cn",
            "max_bn",
            "mean_cn_time_s",
            "mean_bn_time_s",
            "max_phases",
            "pure_cluster_fraction",
            "policy",
            "spares",
            "sample_every_s",
        ],
    )?;
    let policy = match table.get("policy") {
        None => "dynamic".to_string(),
        Some(Value::String(s)) if matches!(s.as_str(), "static" | "dynamic" | "backfill") => {
            s.clone()
        }
        Some(Value::String(s)) => {
            return Err(format!(
                "trace.policy: unknown policy '{s}' (use 'static', 'dynamic', 'backfill')"
            ))
        }
        Some(_) => return Err("trace.policy: expected a string".to_string()),
    };
    let pure_cluster_fraction = opt_f64(table, "trace", "pure_cluster_fraction")?.unwrap_or(0.3);
    if !(0.0..=1.0).contains(&pure_cluster_fraction) {
        return Err("trace.pure_cluster_fraction: must be in 0..=1".to_string());
    }
    Ok(TraceSpec {
        jobs: range_u64(table, "trace", "jobs", 1, 100_000)?
            .ok_or_else(|| "trace: missing required key 'jobs'".to_string())? as u32,
        mean_interarrival_s: positive_f64(table, "trace", "mean_interarrival_s")?,
        max_cn: range_u64(table, "trace", "max_cn", 1, 1_048_576)?.unwrap_or(4) as u32,
        max_bn: range_u64(table, "trace", "max_bn", 0, 1_048_576)?.unwrap_or(8) as u32,
        mean_cn_time_s: positive_f64(table, "trace", "mean_cn_time_s")?,
        mean_bn_time_s: positive_f64(table, "trace", "mean_bn_time_s")?,
        max_phases: range_u64(table, "trace", "max_phases", 1, 64)?.unwrap_or(3) as u32,
        pure_cluster_fraction,
        policy,
        spares: range_u64(table, "trace", "spares", 0, 4096)?.unwrap_or(0) as u32,
        sample_every_s: match opt_f64(table, "trace", "sample_every_s")? {
            None => 60.0,
            Some(v) if v.is_finite() && v > 0.0 => v,
            Some(_) => return Err("trace.sample_every_s: must be finite and > 0".to_string()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_json::object;

    /// The daemon validates untrusted documents with
    /// [`Scenario::from_value`]; axes large enough that their cross
    /// product would be a multi-terabyte allocation must be rejected
    /// from cardinalities alone, before any point vector exists.
    #[test]
    fn oversized_sweep_is_rejected_before_materialization() {
        let values: Vec<Value> = (0..1_000_000)
            .map(|i| Value::Number(i as f64 + 1.0))
            .collect();
        let axis = |param: &str| {
            object([
                ("param", param.into()),
                ("values", Value::Array(values.clone())),
            ])
        };
        let doc = object([
            (
                "scenario",
                object([("name", "dos".into()), ("seed", 1u64.into())]),
            ),
            ("machine", object([("preset", "small".into())])),
            (
                "app",
                object([
                    ("skeleton", "resilience".into()),
                    ("work_s", 1000.0.into()),
                    ("mtbf_node_s", 100_000.0.into()),
                    ("checkpoint_s", 10.0.into()),
                    ("restart_s", 30.0.into()),
                ]),
            ),
            (
                "sweep",
                object([(
                    "axes",
                    Value::Array(vec![axis("work_s"), axis("mtbf_node_s")]),
                )]),
            ),
        ]);
        let err = Scenario::from_value(&doc).unwrap_err();
        assert_eq!(err, "sweep: too many points (cross product exceeds 4096)");
    }

    #[test]
    fn intervals_are_capped() {
        let intervals: Vec<Value> = (0..65).map(|i| Value::Number(i as f64 + 1.0)).collect();
        let doc = object([
            (
                "scenario",
                object([("name", "caps".into()), ("seed", 1u64.into())]),
            ),
            ("machine", object([("preset", "small".into())])),
            (
                "app",
                object([
                    ("skeleton", "resilience".into()),
                    ("work_s", 1000.0.into()),
                    ("mtbf_node_s", 100_000.0.into()),
                    ("checkpoint_s", 10.0.into()),
                    ("restart_s", 30.0.into()),
                    ("intervals", Value::Array(intervals)),
                ]),
            ),
        ]);
        let err = Scenario::from_value(&doc).unwrap_err();
        assert_eq!(err, "app.intervals: must have at most 64 entries");
    }
}
