//! Typed attributes and dimensional metadata.
//!
//! openPMD records carry a `unitDimension` — powers of the seven SI base
//! units (length, mass, time, current, temperature, amount, luminous
//! intensity) — plus a `unitSI` scale factor per component. Attributes are
//! serialised into a compact line format (`key=T:value`) so they travel
//! through the staging layer as one opaque byte blob; a hand-rolled format
//! keeps the dependency surface at zero (see DESIGN.md §5 on why no JSON
//! crate).

use std::collections::BTreeMap;

/// Powers of the seven SI base dimensions `[L, M, T, I, θ, N, J]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitDimension(pub [f64; 7]);

impl UnitDimension {
    /// Dimensionless.
    pub fn none() -> Self {
        Self::default()
    }

    /// Electric field: V/m = kg·m·A⁻¹·s⁻³.
    #[cfg(test)]
    pub(crate) fn electric_field() -> Self {
        Self([1.0, 1.0, -3.0, -1.0, 0.0, 0.0, 0.0])
    }

    /// Magnetic field: T = kg·A⁻¹·s⁻².
    #[cfg(test)]
    pub(crate) fn magnetic_field() -> Self {
        Self([0.0, 1.0, -2.0, -1.0, 0.0, 0.0, 0.0])
    }

    /// Position: m.
    pub fn length() -> Self {
        Self([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    }

    /// Momentum: kg·m/s.
    pub fn momentum() -> Self {
        Self([1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string (must not contain newlines).
    Str(String),
    /// Vector of floats.
    VecF64(Vec<f64>),
}

impl Value {
    fn encode(&self) -> String {
        match self {
            Value::I64(v) => format!("i:{v}"),
            Value::F64(v) => format!("f:{v:e}"),
            Value::Str(s) => {
                assert!(!s.contains('\n'), "attribute strings must be single-line");
                format!("s:{s}")
            }
            Value::VecF64(v) => {
                let parts: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
                format!("v:{}", parts.join(","))
            }
        }
    }

    fn decode(s: &str) -> Option<Value> {
        let (tag, body) = s.split_once(':')?;
        match tag {
            "i" => body.parse().ok().map(Value::I64),
            "f" => body.parse().ok().map(Value::F64),
            "s" => Some(Value::Str(body.to_string())),
            "v" => {
                if body.is_empty() {
                    return Some(Value::VecF64(Vec::new()));
                }
                let parts: Result<Vec<f64>, _> = body.split(',').map(str::parse).collect();
                parts.ok().map(Value::VecF64)
            }
            _ => None,
        }
    }

    /// As float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// An ordered attribute map with a line-based wire format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attributes(BTreeMap<String, Value>);

impl Attributes {
    /// Empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert or replace.
    pub(crate) fn set(&mut self, key: &str, value: Value) -> &mut Self {
        assert!(
            !key.contains('\n') && !key.contains('='),
            "attribute keys must not contain '=' or newlines"
        );
        self.0.insert(key.to_string(), value);
        self
    }

    /// Look up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Serialise to the wire format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        for (k, v) in &self.0 {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.encode());
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Parse the wire format.
    pub(crate) fn decode(data: &[u8]) -> Self {
        let text = String::from_utf8_lossy(data);
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if let Some((k, rest)) = line.split_once('=') {
                if let Some(v) = Value::decode(rest) {
                    map.insert(k.to_string(), v);
                }
            }
        }
        Self(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut a = Attributes::new();
        a.set("steps", Value::I64(42));
        a.set("dt", Value::F64(17.9e-15));
        a.set("software", Value::Str("artificial-scientist".into()));
        a.set(
            "gridSpacing",
            Value::VecF64(vec![93.5e-6, 93.5e-6, 93.5e-6]),
        );
        let b = Attributes::decode(&a.encode());
        assert_eq!(a, b);
    }

    #[test]
    fn numeric_access() {
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
        assert_eq!(Value::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn empty_vector_round_trips() {
        let mut a = Attributes::new();
        a.set("empty", Value::VecF64(vec![]));
        let b = Attributes::decode(&a.encode());
        assert_eq!(b.get("empty"), Some(&Value::VecF64(vec![])));
    }

    #[test]
    fn unit_dimensions_are_physical() {
        // E/B ratio is a velocity: dimensions must differ by [L T⁻¹].
        let e = UnitDimension::electric_field().0;
        let b = UnitDimension::magnetic_field().0;
        assert_eq!(e[0] - b[0], 1.0);
        assert_eq!(e[2] - b[2], -1.0);
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn newline_in_string_rejected() {
        let mut a = Attributes::new();
        a.set("bad", Value::Str("line1\nline2".into()));
        let _ = a.encode();
    }
}
