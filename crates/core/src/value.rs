//! Data values flowing through a workflow.
//!
//! The service-based model treats data as dynamic invocation parameters
//! (paper §2.1). A value is either a literal, a grid file reference
//! (GFN + size, the currency of descriptor-bound services), an
//! in-memory payload (used by local in-process services such as the
//! registration algorithms), or a list (the whole-stream input of a
//! synchronization processor).

use std::any::Any;
use std::fmt::Write as _;
use std::sync::Arc;

/// A single datum on a workflow link.
#[derive(Debug, Clone)]
pub enum DataValue {
    /// A literal string parameter (e.g. the `-s` scale of crestLines).
    Str(String),
    /// A numeric literal.
    Num(f64),
    /// A file on the grid: its GFN and size in bytes.
    File { gfn: String, bytes: u64 },
    /// An arbitrary in-process payload for local services (e.g. a 3-D
    /// image or a rigid transform). Compared by pointer identity.
    Opaque(Arc<dyn Any + Send + Sync>),
    /// The collected stream a synchronization processor consumes.
    List(Vec<DataValue>),
}

impl DataValue {
    pub fn opaque<T: Any + Send + Sync>(value: T) -> Self {
        DataValue::Opaque(Arc::new(value))
    }

    /// Downcast an `Opaque` payload.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<&T> {
        match self {
            DataValue::Opaque(a) => a.downcast_ref::<T>(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            DataValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            DataValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_file(&self) -> Option<(&str, u64)> {
        match self {
            DataValue::File { gfn, bytes } => Some((gfn, *bytes)),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[DataValue]> {
        match self {
            DataValue::List(v) => Some(v),
            _ => None,
        }
    }

    /// Append as a command-line literal (for parameter slots): a list
    /// renders its items separated by commas.
    pub fn write_param(&self, out: &mut String) {
        match self {
            DataValue::Str(s) => out.push_str(s),
            DataValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            DataValue::File { gfn, .. } => out.push_str(gfn),
            DataValue::Opaque(_) => out.push_str("<opaque>"),
            DataValue::List(v) => {
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_param(out);
                }
            }
        }
    }
}

impl PartialEq for DataValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DataValue::Str(a), DataValue::Str(b)) => a == b,
            (DataValue::Num(a), DataValue::Num(b)) => a == b,
            (DataValue::File { gfn: g1, bytes: b1 }, DataValue::File { gfn: g2, bytes: b2 }) => {
                g1 == g2 && b1 == b2
            }
            (DataValue::Opaque(a), DataValue::Opaque(b)) => Arc::ptr_eq(a, b),
            (DataValue::List(a), DataValue::List(b)) => a == b,
            _ => false,
        }
    }
}

impl From<&str> for DataValue {
    fn from(s: &str) -> Self {
        DataValue::Str(s.to_string())
    }
}

impl From<String> for DataValue {
    fn from(s: String) -> Self {
        DataValue::Str(s)
    }
}

impl From<f64> for DataValue {
    fn from(n: f64) -> Self {
        DataValue::Num(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(DataValue::from("x").as_str(), Some("x"));
        assert_eq!(DataValue::from(2.0).as_num(), Some(2.0));
        let f = DataValue::File {
            gfn: "gfn://a".into(),
            bytes: 9,
        };
        assert_eq!(f.as_file(), Some(("gfn://a", 9)));
        assert!(f.as_str().is_none());
        let l = DataValue::List(vec![DataValue::from(1.0)]);
        assert_eq!(l.as_list().unwrap().len(), 1);
    }

    #[test]
    fn opaque_roundtrip_and_pointer_equality() {
        let v = DataValue::opaque(vec![1u8, 2, 3]);
        assert_eq!(v.downcast::<Vec<u8>>().unwrap(), &vec![1u8, 2, 3]);
        assert!(v.downcast::<String>().is_none());
        let w = v.clone();
        assert_eq!(v, w, "clones share the Arc");
        assert_ne!(
            v,
            DataValue::opaque(vec![1u8, 2, 3]),
            "distinct allocations differ"
        );
    }

    #[test]
    fn param_string_rendering() {
        let param = |v: DataValue| {
            let mut out = String::new();
            v.write_param(&mut out);
            out
        };
        assert_eq!(param(DataValue::from("a")), "a");
        assert_eq!(param(DataValue::Num(2.5)), "2.5");
        assert_eq!(
            param(DataValue::File {
                gfn: "gfn://f".into(),
                bytes: 0
            }),
            "gfn://f"
        );
        let l = DataValue::List(vec![DataValue::from("a"), DataValue::from("b")]);
        assert_eq!(param(l), "a,b");
        let nested = DataValue::List(vec![
            DataValue::List(vec![1.0.into(), 2.0.into()]),
            "c".into(),
        ]);
        assert_eq!(param(nested), "1,2,c");
    }

    #[test]
    fn equality_across_variants_is_false() {
        assert_ne!(DataValue::from("1"), DataValue::from(1.0));
    }
}
