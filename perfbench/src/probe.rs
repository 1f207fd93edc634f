//! Host-side measurement: in-memory spans recorded by the benchmark
//! around its calls into the repository's crates, process CPU time and
//! peak memory from `/proc`, a tiny JSON writer, and an FNV-1a digest.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: `[start, end)` in nanoseconds since the tracer was
/// created, and the index of the span that was open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u128,
    pub end_ns: u128,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory; they are written out once, when the run ends.
/// A disabled tracer records nothing and only runs the closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.t0.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as JSON, each with its self time (duration minus the part
    /// covered by its direct children).
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let dur = s.end_ns - s.start_ns;
                    Json::obj(vec![
                        ("id", Json::Num(i as f64)),
                        ("name", Json::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(dur.saturating_sub(child_ns[i]) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A gauge of how fast this host runs right now, measured next to each
/// study: a fixed integer computation that shares no code with the
/// repository, run at once on one thread per CPU (the studies use every
/// CPU, and a slow phase may hit only one). Returns the mean per-thread
/// wall seconds. The threads exist only while the gauge runs, never
/// during a study.
pub fn reference_s() -> f64 {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(gauge_loop_s)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the gauge loop cannot panic"))
            .sum()
    });
    total / n as f64
}

fn gauge_loop_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz clock ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) is index 11.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over the canonical bytes of a workload's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Minimal JSON value for the runner's one-line reports.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}
