//! Sample statistics and a strict JSON writer.
//!
//! Every number leaves the benchmark through [`Json`], which writes a
//! non-finite `f64` as `null`: the output is always strictly valid JSON
//! (no bare `NaN`/`inf` tokens), and an undefined ratio reads as `null`.

use std::fmt::Write as _;

/// A JSON value, kept as an ordered tree so the output's key order is
/// the order the benchmark inserted them in.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (no-op on other variants).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(kv) = self {
            kv.push((key.to_string(), value.into()));
        }
        self
    }

    /// Serializes without whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest representation that round-trips,
                // so every measured digit survives.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::Num)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x as i64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as i64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `a / b`, or `None` when the ratio is undefined.
pub fn ratio(a: f64, b: f64) -> Option<f64> {
    let r = a / b;
    r.is_finite().then_some(r)
}

/// A sorted sample of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.retain(|x| x.is_finite());
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn mean(&self) -> Option<f64> {
        ratio(self.sorted.iter().sum(), self.sorted.len() as f64)
    }

    /// Quantile `q ∈ [0, 1]` by linear interpolation between order
    /// statistics (the "inclusive" method); `None` on an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - w) + self.sorted[hi] * w)
    }

    /// How many samples lie strictly above the `q` quantile.
    pub fn beyond(&self, q: f64) -> usize {
        match self.quantile(q) {
            Some(x) => self.sorted.len() - self.sorted.partition_point(|&v| v <= x),
            None => 0,
        }
    }

    /// `{median, q1, q3, n}`, plus `{p, beyond}` when `pct` names the
    /// percentile the metric reports.
    pub fn summary(&self, pct: Option<f64>) -> Json {
        let mut o = Json::obj();
        o.set("median", self.quantile(0.5))
            .set("q1", self.quantile(0.25))
            .set("q3", self.quantile(0.75))
            .set("n", self.len());
        if let Some(p) = pct {
            o.set("p", p).set("beyond", self.beyond(p));
        }
        o
    }
}

/// Whether `s` holds a bare `NaN`/`inf`/`Infinity` token outside a
/// string: what strict JSON forbids but lenient encoders emit.
#[cfg(test)]
pub fn has_non_finite_token(s: &str) -> bool {
    let mut in_str = false;
    let mut escaped = false;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if escaped {
                escaped = false;
            } else if c == b'\\' {
                escaped = true;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if s[i..].starts_with("NaN")
            || s[i..].starts_with("inf")
            || s[i..].starts_with("Infinity")
        {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_render_as_null() {
        let mut o = Json::obj();
        o.set("a", f64::NAN)
            .set("b", f64::INFINITY)
            .set("c", 1.5)
            .set("d", ratio(1.0, 0.0));
        let s = o.render();
        assert_eq!(s, r#"{"a":null,"b":null,"c":1.5,"d":null}"#);
        assert!(!has_non_finite_token(&s));
    }

    #[test]
    fn detector_flags_bare_tokens_but_not_strings() {
        assert!(has_non_finite_token(r#"{"phi_ratio": NaN}"#));
        assert!(has_non_finite_token(r#"[1, -inf]"#));
        assert!(has_non_finite_token(r#"[Infinity]"#));
        assert!(!has_non_finite_token(r#"{"name": "NaN inf"}"#));
    }

    #[test]
    fn quantiles_match_the_inclusive_method() {
        let s = Sample::new((1..=10).map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some(5.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
        assert_eq!(s.beyond(0.9), 1);
        assert_eq!(Sample::new(vec![]).quantile(0.5), None);
    }

    #[test]
    fn float_rendering_keeps_every_digit() {
        let x = 0.1 + 0.2;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }
}
