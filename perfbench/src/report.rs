//! Rank results on disk and the final JSON line.
//!
//! Each rank writes `<job>.r<rank>.txt` (one `key value` pair a line)
//! and one little-endian `u32` file per sample set next to it; the
//! launcher reads both ranks back and derives the metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// What one rank records.
#[derive(Default)]
pub struct Rec {
    vals: BTreeMap<String, f64>,
    lists: BTreeMap<String, Vec<f64>>,
    samples: BTreeMap<String, Vec<u32>>,
}

impl Rec {
    pub fn put(&mut self, k: &str, v: f64) {
        self.vals.insert(k.to_string(), v);
    }

    /// Adds to a counter (created at zero).
    pub fn add(&mut self, k: &str, v: f64) {
        *self.vals.entry(k.to_string()).or_insert(0.0) += v;
    }

    /// Raises a high-water mark (created at zero).
    pub fn max(&mut self, k: &str, v: f64) {
        let e = self.vals.entry(k.to_string()).or_insert(0.0);
        *e = e.max(v);
    }

    /// Appends one value (a per-round figure) to a list.
    pub fn push(&mut self, k: &str, v: f64) {
        self.lists.entry(k.to_string()).or_default().push(v);
    }

    /// Appends to a sample set.
    pub fn extend(&mut self, k: &str, v: Vec<u32>) {
        self.samples.entry(k.to_string()).or_default().extend(v);
    }

    pub fn write(&self, dir: &Path, job: &str, rank: usize) -> std::io::Result<()> {
        for (k, v) in &self.samples {
            let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
            std::fs::write(dir.join(format!("{job}.r{rank}.{k}.u32")), bytes)?;
        }
        // The text file last: its presence means the rank finished.
        let tmp = dir.join(format!("{job}.r{rank}.tmp"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for (k, v) in &self.vals {
            writeln!(w, "{k} {v:?}")?;
        }
        for (k, v) in &self.lists {
            let v: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            writeln!(w, "{k} [{}]", v.join(" "))?;
        }
        w.flush()?;
        drop(w);
        std::fs::rename(tmp, dir.join(format!("{job}.r{rank}.txt")))
    }
}

/// One rank's record, read back by the launcher.
pub struct RankResult {
    dir: PathBuf,
    prefix: String,
    pub vals: BTreeMap<String, f64>,
    pub lists: BTreeMap<String, Vec<f64>>,
}

impl RankResult {
    pub fn read(dir: &Path, job: &str, rank: usize) -> Option<RankResult> {
        let text = std::fs::read_to_string(dir.join(format!("{job}.r{rank}.txt"))).ok()?;
        let (mut vals, mut lists) = (BTreeMap::new(), BTreeMap::new());
        for l in text.lines() {
            let Some((k, v)) = l.split_once(' ') else { continue };
            if let Some(list) = v.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
                let list = list.split_whitespace().filter_map(|x| x.parse().ok()).collect();
                lists.insert(k.to_string(), list);
            } else if let Ok(v) = v.trim().parse() {
                vals.insert(k.to_string(), v);
            }
        }
        Some(RankResult { dir: dir.to_path_buf(), prefix: format!("{job}.r{rank}"), vals, lists })
    }

    pub fn get(&self, k: &str) -> f64 {
        self.vals.get(k).copied().unwrap_or(0.0)
    }

    pub fn list(&self, k: &str) -> &[f64] {
        self.lists.get(k).map_or(&[], |v| v.as_slice())
    }

    pub fn samples(&self, k: &str) -> Vec<u32> {
        std::fs::read(self.dir.join(format!("{}.{k}.u32", self.prefix)))
            .map(|b| {
                b.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte sample")))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A metric value with its unit, in output order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-trip form), anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line, printed last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.join(", ")
    )
}

/// A flat JSON object of string fields (the run's context line).
pub fn info_line(fields: &[(&str, String)]) -> String {
    let f: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{\"info\": {{{}}}}}", f.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rec_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("perfbench-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = Rec::default();
        r.put("a.b", 1.25);
        r.add("c", 2.0);
        r.add("c", 3.0);
        r.max("h", 4.0);
        r.max("h", 1.0);
        r.extend("s", vec![1, 2]);
        r.extend("s", vec![3]);
        r.push("l", 0.5);
        r.push("l", 2.0);
        r.write(&dir, "job", 1).unwrap();
        let back = RankResult::read(&dir, "job", 1).unwrap();
        assert_eq!(back.get("a.b"), 1.25);
        assert_eq!(back.get("c"), 5.0);
        assert_eq!(back.get("h"), 4.0);
        assert_eq!(back.get("missing"), 0.0);
        assert_eq!(back.samples("s"), vec![1, 2, 3]);
        assert_eq!(back.list("l"), &[0.5, 2.0]);
        assert!(back.list("none").is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_shape() {
        let l = result_line(true, 3, 0, &[Metric { name: "x".into(), value: 1.5, unit: "ms" }]);
        assert_eq!(
            l,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
