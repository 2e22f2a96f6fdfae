//! Shared helpers: seeded draws, percentiles, digests, spans, the process
//! environment stamp and the one-line JSON writer.

use std::collections::BTreeMap;
use std::time::Instant;

/// splitmix64: the seeded stream every workload draws its inputs from.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th draw of stream `salt` under `seed`.
pub fn draw(seed: u64, salt: u64, i: u64) -> u64 {
    mix(mix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
}

/// Entry `i` of a stream over `0..len` made of seeded permutations, one per
/// round of `len` draws, so every value appears equally often in every
/// round.
pub fn balanced(seed: u64, salt: u64, len: usize, i: usize) -> usize {
    let round = (i / len) as u64;
    let mut order: Vec<usize> = (0..len).collect();
    for k in (1..len).rev() {
        let j = (draw(seed, salt, round << 20 | k as u64) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    order[i % len]
}

/// Nearest-rank percentile (`q` in [0, 100]) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that leaves at least ten of
/// `n` samples beyond it.
pub fn tail_level(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Whether another timed set-up is due: at least five, then more while
/// they have taken under two seconds in total (at most a hundred).
pub fn more_setups(done: &[f64]) -> bool {
    done.len() < 5 || (done.iter().sum::<f64>() < 2.0 && done.len() < 100)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Contention-filtered timings of a stream of repeated requests: each
/// sample becomes the fastest warm repeat of its kind in the run. The first
/// request of a kind warms caches and counts only when it is the kind's one
/// request. On a shared 2-vCPU virtual machine the speed of the same work
/// swings by up to 1.5x over seconds with other tenants' load; a median
/// over the run moves with that load, the fastest repeat of the work
/// barely does, while any change to the work itself moves every repeat.
pub fn floors(kinds: &[usize], values: &[f64]) -> Vec<f64> {
    // Per kind: whether a warm repeat has been seen, and the floor so far.
    let mut best: BTreeMap<usize, (bool, f64)> = BTreeMap::new();
    for (&k, &v) in kinds.iter().zip(values) {
        match best.get_mut(&k) {
            None => {
                best.insert(k, (false, v));
            }
            Some(e) if !e.0 => *e = (true, v),
            Some(e) => e.1 = e.1.min(v),
        }
    }
    kinds.iter().map(|k| best[k].1).collect()
}

/// FNV-1a over 64-bit words: the output digest compared across runs of one
/// seed and between the plain and the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Leaf spans of the traced pass: total seconds and call count per layer
/// call. Spans never nest, so a span's duration is its self time.
#[derive(Debug, Default)]
pub struct Spans {
    pub total: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let e = self.total.entry(name).or_default();
        e.0 += t0.elapsed().as_secs_f64();
        e.1 += 1;
        out
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.total.get(name).map_or(0.0, |e| e.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.total.get(name).map_or(0, |e| e.1)
    }

    /// Mean milliseconds per call (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.secs(name) * 1e3 / n as f64,
        }
    }

    pub fn sum(&self) -> f64 {
        self.total.values().map(|e| e.0).sum()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker count the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment stamp every result carries.
pub fn env_stamp(workers: usize, chains: usize) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut j = Json::default();
    j.int("nproc", nproc() as u64);
    j.str(
        "dance_threads",
        &std::env::var("DANCE_THREADS").unwrap_or_default(),
    );
    j.int("server_workers", workers as u64);
    j.int("chains", chains as u64);
    j.str("git_rev", &git_rev());
    j.str("rustc", &rustc);
    j
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" in an export without git metadata).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None => head.trim().to_string(),
    }
}

/// A flat JSON object built field by field (no serializer dependency).
#[derive(Debug, Default, Clone)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    pub fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.fields.push((key.to_string(), format!("{v:?}")));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.fields.push((key.to_string(), v.to_string()));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
    }

    pub fn bool(&mut self, key: &str, v: bool) {
        self.fields.push((key.to_string(), v.to_string()));
    }

    pub fn obj(&mut self, key: &str, v: &Json) {
        self.fields.push((key.to_string(), v.render()));
    }

    pub fn raw(&mut self, key: &str, v: String) {
        self.fields.push((key.to_string(), v));
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Named metrics with units, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::default();
        for (name, value, unit) in &self.0 {
            let mut m = Json::default();
            m.num("value", *value);
            m.str("unit", unit);
            j.obj(name, &m);
        }
        j
    }
}
