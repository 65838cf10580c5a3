//! The field-list codec: one text form for every stored value.
//!
//! A record is one line of `name=value` pairs separated by single
//! spaces; [`record_codec!`](crate::record_codec) declares a struct
//! and its record form from one field list. Each value is its type's
//! [`Codec`] text passed through the one escaper (`escape_into`), so
//! it never holds a raw space, tab, newline or comma:
//!
//! * `u64`, `usize`, `u128`, `bool` and `String` use their `Display` text;
//! * `f64` is its bit pattern in 16 hex digits, so decoding is bit-exact;
//! * a list is its items, each escaped and followed by `,` (so the empty
//!   list and a list of one empty string differ);
//! * an `Option` is `-` or `+` followed by the value;
//! * a nested record is its own field list, escaped.

/// A value whose text form round-trips exactly.
pub trait Codec: Sized {
    /// The value's text form.
    fn encode(&self) -> String;

    /// Parses [`Codec::encode`] output.
    ///
    /// # Errors
    ///
    /// Describes the first malformed part.
    fn decode(text: &str) -> Result<Self, String>;
}

/// Appends `s` with `\`, space, tab, newline and comma escaped.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            ',' => out.push_str("\\c"),
            c => out.push(c),
        }
    }
}

/// Inverse of [`escape_into`].
pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('c') => out.push(','),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

macro_rules! codec_via_display {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn encode(&self) -> String {
                self.to_string()
            }
            fn decode(text: &str) -> Result<$t, String> {
                text.parse().map_err(|e| format!("{e}: {text:?}"))
            }
        }
    )+};
}

codec_via_display!(u64, usize, u128, bool, String);

impl Codec for f64 {
    fn encode(&self) -> String {
        format!("{:016x}", self.to_bits())
    }
    fn decode(text: &str) -> Result<f64, String> {
        u64::from_str_radix(text, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("{e}: {text:?}"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> String {
        let mut out = String::new();
        for item in self {
            escape_into(&mut out, &item.encode());
            out.push(',');
        }
        out
    }
    fn decode(text: &str) -> Result<Vec<T>, String> {
        if !text.is_empty() && !text.ends_with(',') {
            return Err(format!("unterminated list {text:?}"));
        }
        text.split_terminator(',')
            .map(|item| T::decode(&unescape(item)))
            .collect()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> String {
        match self {
            None => "-".to_string(),
            Some(v) => format!("+{}", v.encode()),
        }
    }
    fn decode(text: &str) -> Result<Option<T>, String> {
        match text.strip_prefix('+') {
            Some(v) => T::decode(v).map(Some),
            None if text == "-" => Ok(None),
            None => Err(format!("bad option {text:?}")),
        }
    }
}

/// Appends one `name=value` pair to a record (used by
/// [`record_codec!`](crate::record_codec)).
pub fn put_field<T: Codec>(out: &mut String, name: &str, value: &T) {
    if !out.is_empty() {
        out.push(' ');
    }
    out.push_str(name);
    out.push('=');
    escape_into(out, &value.encode());
}

/// Decodes the field `name` of a record (used by
/// [`record_codec!`](crate::record_codec)).
///
/// # Errors
///
/// The field is missing or its value does not decode.
pub fn get_field<T: Codec>(record: &str, name: &str) -> Result<T, String> {
    let raw = record
        .split(' ')
        .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('='))
        .ok_or_else(|| format!("missing field {name}"))?;
    T::decode(&unescape(raw)).map_err(|e| format!("field {name}: {e}"))
}

/// Declares a struct and implements [`Codec`] for it from the same
/// field list, so a field can never be left out of its record.
///
/// ```
/// use lightwsp_store::{record_codec, Codec};
///
/// record_codec! {
///     #[derive(Debug, PartialEq)]
///     struct Cell {
///         name: String,
///         cycles: u64,
///         wall_s: f64,
///     }
/// }
///
/// let c = Cell { name: "kv service".into(), cycles: 7, wall_s: 0.25 };
/// assert_eq!(c.encode(), "name=kv\\sservice cycles=7 wall_s=3fd0000000000000");
/// assert_eq!(Cell::decode(&c.encode()).unwrap(), c);
/// ```
#[macro_export]
macro_rules! record_codec {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),+
        }

        impl $crate::Codec for $name {
            fn encode(&self) -> String {
                let mut out = String::new();
                $($crate::codec::put_field(&mut out, stringify!($field), &self.$field);)+
                out
            }
            fn decode(text: &str) -> Result<$name, String> {
                Ok($name { $($field: $crate::codec::get_field(text, stringify!($field))?),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    record_codec! {
        #[derive(Debug, PartialEq)]
        struct Inner {
            label: String,
            count: Option<u128>,
        }
    }

    record_codec! {
        #[derive(Debug, PartialEq)]
        struct Outer {
            wall_s: f64,
            flags: Vec<bool>,
            notes: Vec<String>,
            inner: Vec<Inner>,
            nested: Vec<Vec<u64>>,
        }
    }

    #[test]
    fn nested_records_roundtrip_with_nasty_strings() {
        let v = Outer {
            wall_s: 0.1 + 0.2,
            flags: vec![true, false],
            notes: vec![String::new(), "a, b\tc\nd \\e=f".into(), "-".into()],
            inner: vec![
                Inner {
                    label: "x y,z".into(),
                    count: Some(u128::from(u64::MAX) * 3),
                },
                Inner {
                    label: String::new(),
                    count: None,
                },
            ],
            nested: vec![vec![], vec![1, 2], vec![0]],
        };
        let text = v.encode();
        assert!(!text.contains(['\t', '\n']), "{text}");
        let d = Outer::decode(&text).unwrap();
        assert_eq!(d, v);
        assert_eq!(d.wall_s.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(Vec::<String>::decode(""), Ok(vec![]));
        assert_eq!(Vec::<String>::decode(","), Ok(vec![String::new()]));
    }

    #[test]
    fn decode_rejects_missing_and_malformed_fields() {
        assert!(Inner::decode("label=x").is_err(), "missing count");
        assert!(Inner::decode("label=x count=7").is_err(), "bad option");
        assert!(Inner::decode("labels=x count=-").is_err(), "a prefix");
        assert!(Vec::<u64>::decode("1,2").is_err(), "unterminated list");
        assert!(f64::decode("xyz").is_err());
        assert_eq!(Inner::decode("count=- label=").unwrap().label, "");
    }
}
