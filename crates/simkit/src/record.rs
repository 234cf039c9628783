//! Dependency-free structured result serialization.
//!
//! Experiment results flow out of the harness as flat records — one row per
//! simulated point — that downstream tooling consumes as JSON or CSV. The
//! build must work fully offline, so instead of a serde derive this module
//! defines a tiny [`Value`] model and a [`Record`] trait that types
//! implement by listing their `(field, value)` pairs explicitly.
//!
//! # Formats
//!
//! * **JSON** ([`write_json`]): an array of objects, one per record. Lists
//!   (e.g. per-channel bandwidth) serialize as JSON arrays. Non-finite
//!   floats serialize as `null` (JSON has no NaN/Infinity).
//! * **CSV** ([`write_csv`]): a header row from the first record's field
//!   names, then one line per record. Lists are joined with `;` inside a
//!   single cell. Fields containing `,`, `"`, or newlines are quoted per
//!   RFC 4180.
//!
//! ```
//! use simkit::record::{Record, Value, to_json};
//!
//! struct Point { name: &'static str, gteps: f64 }
//! impl Record for Point {
//!     fn fields(&self) -> Vec<(&'static str, Value)> {
//!         vec![("name", Value::from(self.name)), ("gteps", Value::from(self.gteps))]
//!     }
//! }
//! let rows = [Point { name: "rmat-21", gteps: 2.5 }];
//! assert_eq!(to_json(&rows), "[\n  {\"name\": \"rmat-21\", \"gteps\": 2.5}\n]\n");
//! ```

use std::fmt::Write as _;
use std::io::{self, Write};

/// A scalar or list value inside a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / not-applicable.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so u64 counters round-trip).
    UInt(u64),
    /// Floating point. Non-finite values serialize as JSON `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Homogeneous or mixed list, e.g. per-channel bandwidth.
    List(Vec<Value>),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl Value {
    /// Render as a JSON fragment.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json_into(&mut s);
        s
    }

    fn write_json_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{}", fmt_float(*f));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_json_into(out);
                }
                out.push(']');
            }
        }
    }

    /// Render as a CSV cell (unquoted; [`write_csv`] adds quoting).
    fn to_csv_cell(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Float(f) => fmt_float(*f),
            Value::Str(s) => s.clone(),
            Value::List(items) => items
                .iter()
                .map(|v| v.to_csv_cell())
                .collect::<Vec<_>>()
                .join(";"),
        }
    }
}

/// Shortest float form that still round-trips through `str::parse::<f64>`.
fn fmt_float(f: f64) -> String {
    if !f.is_finite() {
        return "NaN".into();
    }
    // `{}` on f64 is already shortest-round-trip in Rust; just make sure
    // integral values keep a `.0` so readers see a float column.
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// A flat, serializable result row.
///
/// Implementors list their fields in a fixed order; the order defines the
/// CSV column order and the JSON key order.
pub trait Record {
    /// The `(field name, value)` pairs of this record, in column order.
    fn fields(&self) -> Vec<(&'static str, Value)>;
}

/// Serialize records as a pretty-ish JSON array (one object per line).
pub fn to_json<R: Record>(records: &[R]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  {");
        for (j, (name, value)) in r.fields().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": ");
            value.write_json_into(&mut out);
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Serialize records as CSV (RFC 4180 quoting, header from first record).
pub fn to_csv<R: Record>(records: &[R]) -> String {
    let mut out = String::new();
    let Some(first) = records.first() else {
        return out;
    };
    let header: Vec<&str> = first.fields().iter().map(|(n, _)| *n).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in records {
        let fields = r.fields();
        debug_assert_eq!(
            fields.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            header,
            "all records in a CSV export must share one schema"
        );
        let line: Vec<String> = fields
            .iter()
            .map(|(_, v)| csv_quote(&v.to_csv_cell()))
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

fn csv_quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Write records to `w` as JSON.
pub fn write_json<R: Record, W: Write>(w: &mut W, records: &[R]) -> io::Result<()> {
    w.write_all(to_json(records).as_bytes())
}

/// Write records to `w` as CSV.
pub fn write_csv<R: Record, W: Write>(w: &mut W, records: &[R]) -> io::Result<()> {
    w.write_all(to_csv(records).as_bytes())
}

/// Output format selector shared by every exporting subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// JSON array of objects.
    #[default]
    Json,
    /// Comma-separated values with a header row.
    Csv,
}

impl std::str::FromStr for Format {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format '{other}' (expected json|csv)")),
        }
    }
}

impl Format {
    /// Serialize `records` in this format.
    pub fn render<R: Record>(self, records: &[R]) -> String {
        match self {
            Format::Json => to_json(records),
            Format::Csv => to_csv(records),
        }
    }
}

/// Sub-bucket resolution bits of [`LatencyHistogram`]: each power-of-two
/// range is split into `2^HIST_SUB_BITS` linear sub-buckets, bounding the
/// relative quantile error at `2^-HIST_SUB_BITS` (12.5%).
const HIST_SUB_BITS: u32 = 3;
/// Values below this are counted in exact unit buckets.
const HIST_EXACT: usize = 1 << (HIST_SUB_BITS + 1);
/// Total bucket count: the exact range plus 8 sub-buckets for every
/// remaining bit position of a `u64`.
const HIST_BUCKETS: usize = HIST_EXACT + (64 - (HIST_SUB_BITS + 1) as usize) * (1 << HIST_SUB_BITS);

/// Allocation-free log-linear latency histogram.
///
/// Designed for per-request latency recording in hot scheduler loops: the
/// whole state is two fixed arrays' worth of `u64` counters, so `record`
/// never allocates and `merge` is a pure element-wise add — exactly
/// associative and commutative, which keeps fan-out/fan-in aggregation
/// byte-deterministic regardless of merge order.
///
/// Values below 16 land in exact unit buckets; larger values share a
/// bucket with at most 12.5% relative spread (power-of-two exponent plus
/// `HIST_SUB_BITS` linear bits). [`quantile`](Self::quantile) returns
/// the inclusive upper edge of the bucket holding the requested rank
/// (clamped to the observed maximum), so for any recorded distribution
/// `oracle(q) <= quantile(q) <= oracle(q) * 9/8 + 1`.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets[..] == other.buckets[..]
    }
}
impl Eq for LatencyHistogram {}

impl LatencyHistogram {
    /// An empty histogram. All state is inline; nothing is allocated.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v`.
    fn bucket_of(v: u64) -> usize {
        if v < HIST_EXACT as u64 {
            return v as usize;
        }
        // Highest set bit is at position m >= SUB_BITS+1; the SUB_BITS
        // bits below it pick the linear sub-bucket.
        let m = 63 - v.leading_zeros();
        let sub = (v >> (m - HIST_SUB_BITS)) & ((1 << HIST_SUB_BITS) - 1);
        HIST_EXACT + ((m - (HIST_SUB_BITS + 1)) * (1 << HIST_SUB_BITS) + sub as u32) as usize
    }

    /// Inclusive upper edge of bucket `b` — the value `quantile` reports
    /// for samples inside it.
    fn upper_edge(b: usize) -> u64 {
        if b < HIST_EXACT {
            return b as u64;
        }
        let i = (b - HIST_EXACT) as u32;
        let m = HIST_SUB_BITS + 1 + i / (1 << HIST_SUB_BITS);
        let sub = (i % (1 << HIST_SUB_BITS)) as u128;
        let hi = ((1 << HIST_SUB_BITS) as u128 + sub + 1) << (m - HIST_SUB_BITS);
        u64::try_from(hi - 1).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Element-wise `u64` addition (saturating
    /// on the sample sum), so merging is exactly associative and
    /// commutative: any merge tree over the same histograms yields the
    /// same bytes.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket containing the sample of rank `ceil(q * count)` (rank 1 for
    /// `q = 0`), clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_edge(b).min(self.max);
            }
        }
        self.max
    }

    /// The standard latency quartet `(p50, p90, p99, p999)`.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        cycles: u64,
        gteps: f64,
        per_ch: Vec<f64>,
        note: Option<String>,
    }

    impl Record for Row {
        fn fields(&self) -> Vec<(&'static str, Value)> {
            vec![
                ("name", Value::from(self.name.clone())),
                ("cycles", Value::from(self.cycles)),
                ("gteps", Value::from(self.gteps)),
                ("per_ch", Value::from(self.per_ch.clone())),
                ("note", Value::from(self.note.clone())),
            ]
        }
    }

    fn rows() -> Vec<Row> {
        vec![
            Row {
                name: "rmat-21".into(),
                cycles: 123456,
                gteps: 2.5,
                per_ch: vec![10.0, 10.5],
                note: None,
            },
            Row {
                name: "web, \"large\"".into(),
                cycles: 99,
                gteps: 0.125,
                per_ch: vec![1.0],
                note: Some("t/o".into()),
            },
        ]
    }

    #[test]
    fn json_round_trips_structure() {
        let j = to_json(&rows());
        assert!(j.starts_with("[\n"));
        assert!(j.contains("\"name\": \"rmat-21\""));
        assert!(j.contains("\"cycles\": 123456"));
        assert!(j.contains("\"gteps\": 2.5"));
        assert!(j.contains("\"per_ch\": [10.0, 10.5]"));
        assert!(j.contains("\"note\": null"));
        assert!(j.contains("\\\"large\\\""));
        assert!(j.trim_end().ends_with(']'));
    }

    #[test]
    fn json_escapes_control_and_nonfinite() {
        assert_eq!(Value::Str("a\nb".into()).to_json(), "\"a\\nb\"");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn csv_has_header_and_quoting() {
        let c = to_csv(&rows());
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "name,cycles,gteps,per_ch,note");
        assert_eq!(lines.next().unwrap(), "rmat-21,123456,2.5,10.0;10.5,");
        // Embedded comma and quotes force RFC 4180 quoting.
        assert_eq!(
            lines.next().unwrap(),
            "\"web, \"\"large\"\"\",99,0.125,1.0,t/o"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn csv_of_empty_slice_is_empty() {
        let rows: Vec<Row> = vec![];
        assert_eq!(to_csv(&rows), "");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(fmt_float(3.0), "3.0");
        assert_eq!(fmt_float(0.25), "0.25");
        assert_eq!(fmt_float(1e300).parse::<f64>().unwrap(), 1e300);
    }

    #[test]
    fn histogram_is_exact_below_sixteen() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
        // With exact unit buckets, every quantile matches the oracle.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantiles_bound_relative_error() {
        let mut h = LatencyHistogram::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut x = 1u64;
        while x < 1 << 40 {
            vals.push(x);
            vals.push(x + x / 3);
            x *= 7;
        }
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let n = vals.len() as f64;
            let rank = ((q * n).ceil() as usize).clamp(1, vals.len());
            let oracle = vals[rank - 1];
            let got = h.quantile(q);
            assert!(got >= oracle, "q={q}: {got} < oracle {oracle}");
            assert!(
                got <= oracle + oracle / 8 + 1,
                "q={q}: {got} > oracle {oracle} * 9/8 + 1"
            );
        }
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let (mut a, mut b, mut all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for v in [3u64, 90, 17, 200_000, 5, 1 << 33] {
            all.record(v);
        }
        for v in [3u64, 90, 17] {
            a.record(v);
        }
        for v in [200_000u64, 5, 1 << 33] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        let empty = LatencyHistogram::new();
        let mut c = all.clone();
        c.merge(&empty);
        assert_eq!(c, all);
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // The top bucket's edge saturates instead of overflowing.
        assert_eq!(h.quantile(1.0), u64::MAX);
        let (p50, p90, p99, p999) = h.summary();
        assert_eq!(p50, 0);
        assert_eq!(p90, u64::MAX);
        assert_eq!(p99, u64::MAX);
        assert_eq!(p999, u64::MAX);
    }

    #[test]
    fn format_parses_and_renders() {
        assert_eq!("json".parse::<Format>().unwrap(), Format::Json);
        assert_eq!("CSV".parse::<Format>().unwrap(), Format::Csv);
        assert!("xml".parse::<Format>().is_err());
        assert!(Format::Csv.render(&rows()).starts_with("name,"));
        assert!(Format::Json.render(&rows()).starts_with("[\n"));
    }
}
