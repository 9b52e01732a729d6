//! A small JSON writer that refuses non-finite numbers.
//!
//! JSON has no NaN or ∞. The repository's `BENCH_*.json` writer clamps them
//! to 0, which would turn a broken measurement into a perfect-looking one;
//! here a non-finite value is an error naming the offending key instead.
//! Parsing reuses `backfi_obs::json`.

use std::fmt::Write;

/// A JSON value under construction.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Render compactly on one line. Fails on the first non-finite number,
    /// reporting its path.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, "$")?;
        Ok(out)
    }

    fn write(&self, out: &mut String, path: &str) -> Result<(), String> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(out, "{i}").expect("write to String"),
            Value::Num(v) => {
                if !v.is_finite() {
                    return Err(format!("non-finite number {v} at {path}"));
                }
                // `Display` prints the shortest string that round-trips,
                // never in exponent form: a valid JSON number with all its
                // digits.
                write!(out, "{v}").expect("write to String");
            }
            Value::Str(s) => {
                write!(out, "\"{}\"", backfi_obs::json::escape(s)).expect("write to String")
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out, &format!("{path}[{i}]"))?;
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write!(out, "\"{}\":", backfi_obs::json::escape(k)).expect("write to String");
                    v.write(out, &format!("{path}.{k}"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Shorthand for an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_full_precision() {
        let v = obj([
            ("a", Value::Num(1.2034567891234)),
            ("b", Value::Int(7)),
            ("c", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("d", Value::Str("x\"y".into())),
            ("e", Value::Num(1e-7)),
        ]);
        let s = v.render().unwrap();
        assert_eq!(
            s,
            r#"{"a":1.2034567891234,"b":7,"c":[true,null],"d":"x\"y","e":0.0000001}"#
        );
        let parsed = backfi_obs::json::parse(&s).unwrap();
        assert_eq!(parsed.get("a").unwrap().as_f64(), Some(1.2034567891234));
        assert_eq!(parsed.get("e").unwrap().as_f64(), Some(1e-7));
    }

    #[test]
    fn rejects_nan_and_infinity_instead_of_clamping() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = obj([("metrics", obj([("ops_per_s", Value::Num(bad))]))]);
            let err = v.render().unwrap_err();
            assert!(err.contains("$.metrics.ops_per_s"), "{err}");
        }
    }
}
