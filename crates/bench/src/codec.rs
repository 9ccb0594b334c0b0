//! Typed documents over [`crate::benchjson`]: each [`Schema`] type
//! states its JSON shape once, in one table, and that table drives the
//! canonical encoding, the checked decoding and the unknown-key check.
//!
//! Decoding an object first checks its keys, so an unknown or repeated
//! key is reported before any field is read; then it reads the fields in
//! table order, which is also the canonical encoding order. Every error
//! names the offending field path.

use std::mem::discriminant;

use crate::benchjson::Json;

/// Largest integer JSON (f64) carries exactly; integers at or above it
/// would silently lose precision through a round-trip.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A value with a canonical JSON encoding and a checked decoding. The
/// primitives implement it directly, and every [`Schema`] type through
/// its table.
pub trait Codec: Sized {
    /// The canonical JSON value.
    fn encode(&self) -> Json;

    /// Reads a value at `path`.
    ///
    /// # Errors
    ///
    /// `{path}: {reason}` for the first violation.
    fn decode(v: &Json, path: &str) -> Result<Self, String>;
}

/// How a [`Schema`] type sits in a document.
pub enum Form<T> {
    /// An object of [`Schema::fields`], decoded over the given blank.
    Record(fn() -> T),
    /// A string naming one of [`Schema::tags`]; the payload is the noun
    /// of the error for an unknown name.
    Name(&'static str),
    /// An object whose field `key` names one of [`Schema::tags`] (the
    /// noun `what` names an unknown one), then that variant's fields.
    Tagged {
        /// The tag's field.
        key: &'static str,
        /// The noun of the error for an unknown tag.
        what: &'static str,
    },
}

/// A document type's one table.
pub trait Schema: Clone {
    /// Record, name or tagged object.
    const FORM: Form<Self>;

    /// Names or tags, each with a blank value of its variant.
    fn tags() -> Vec<(&'static str, Self)> {
        Vec::new()
    }

    /// Visits the (current variant's) fields in canonical order.
    fn fields(&mut self, _p: &mut Pass) {}
}

/// One walk over a [`Schema::fields`] table.
pub enum Pass<'a> {
    /// Collects the keys.
    Keys(Vec<&'static str>),
    /// Appends each field's encoding.
    Encode(Vec<(String, Json)>),
    /// Reads each field of `obj` at `path`, keeping the first error.
    Decode(&'a Json, &'a str, Result<(), String>),
}

impl Pass<'_> {
    /// The required field `key`, held in `slot`.
    pub fn field<T: Codec>(&mut self, key: &'static str, slot: &mut T) -> &mut Self {
        match self {
            Pass::Keys(keys) => keys.push(key),
            Pass::Encode(pairs) => pairs.push((key.to_string(), slot.encode())),
            Pass::Decode(obj, path, result @ Ok(())) => {
                *result = match obj.get(key) {
                    Some(v) => T::decode(v, &format!("{path}.{key}")).map(|v| *slot = v),
                    None => Err(format!("{path}: missing field `{key}`")),
                };
            }
            Pass::Decode(..) => {}
        }
        self
    }

    /// The optional field `key`, omitted when `slot` is `None`.
    pub fn opt<T: Codec>(&mut self, key: &'static str, slot: &mut Option<T>) -> &mut Self {
        match self {
            Pass::Keys(keys) => keys.push(key),
            Pass::Encode(pairs) => {
                pairs.extend(slot.as_ref().map(|v| (key.to_string(), v.encode())))
            }
            Pass::Decode(obj, path, result @ Ok(())) => {
                let v = obj.get(key).map(|v| T::decode(v, &format!("{path}.{key}")));
                *result = v.transpose().map(|v| *slot = v);
            }
            Pass::Decode(..) => {}
        }
        self
    }

    /// A tagged value spread into this object: its tag field, then its
    /// variant's fields. The object admits every variant's fields, and
    /// refuses another variant's by name.
    pub fn flatten<T: Schema>(&mut self, slot: &mut T) -> &mut Self {
        let Form::Tagged { key, what } = T::FORM else {
            panic!("only tagged types flatten")
        };
        match self {
            Pass::Keys(keys) => {
                keys.push(key);
                for (_, mut other) in T::tags() {
                    other.fields(self);
                }
            }
            Pass::Encode(pairs) => {
                pairs.push((key.to_string(), Json::Str(tag_of(slot).to_string())));
                slot.fields(self);
            }
            Pass::Decode(obj, path, result @ Ok(())) => {
                let (obj, path) = (*obj, *path);
                *result = variant(obj, path, key, what).map(|v| *slot = v);
                slot.fields(self);
                if let Pass::Decode(_, _, result @ Ok(())) = self {
                    *result = foreign_field(slot, obj, path, what);
                }
            }
            Pass::Decode(..) => {}
        }
        self
    }
}

/// Refuses a field of `obj` that belongs to a variant other than `v`'s.
fn foreign_field<T: Schema>(v: &mut T, obj: &Json, path: &str, what: &str) -> Result<(), String> {
    let mine = keys_of(v);
    for (tag, mut other) in T::tags() {
        let keys = keys_of(&mut other);
        if let Some(k) = keys
            .iter()
            .find(|k| !mine.contains(k) && obj.get(k).is_some())
        {
            return Err(format!("{path}.{k}: only valid with the `{tag}` {what}"));
        }
    }
    Ok(())
}

/// The name or tag of `v`'s variant.
pub fn tag_of<T: Schema>(v: &T) -> &'static str {
    T::tags()
        .into_iter()
        .find(|(_, x)| discriminant(x) == discriminant(v))
        .map(|(tag, _)| tag)
        .expect("every variant has a tag")
}

/// The blank value the string `v` names.
fn named<T: Schema>(v: &Json, path: &str, what: &str) -> Result<T, String> {
    let name = String::decode(v, path)?;
    T::tags()
        .into_iter()
        .find(|(tag, _)| *tag == name)
        .map(|(_, x)| x)
        .ok_or_else(|| format!("{path}: unknown {what} `{name}`"))
}

/// The blank variant the tag field `key` of `obj` names.
fn variant<T: Schema>(obj: &Json, path: &str, key: &str, what: &str) -> Result<T, String> {
    let tag = obj
        .get(key)
        .ok_or_else(|| format!("{path}: missing field `{key}`"))?;
    named(tag, &format!("{path}.{key}"), what)
}

fn keys_of<T: Schema>(v: &mut T) -> Vec<&'static str> {
    let mut p = Pass::Keys(Vec::new());
    v.fields(&mut p);
    match p {
        Pass::Keys(keys) => keys,
        _ => unreachable!("a pass keeps its mode"),
    }
}

impl<T: Schema> Codec for T {
    fn encode(&self) -> Json {
        let mut x = self.clone();
        let mut p = Pass::Encode(Vec::new());
        match T::FORM {
            Form::Name(_) => return Json::Str(tag_of(self).to_string()),
            Form::Record(_) => x.fields(&mut p),
            Form::Tagged { .. } => {
                p.flatten(&mut x);
            }
        }
        match p {
            Pass::Encode(pairs) => Json::Obj(pairs),
            _ => unreachable!("a pass keeps its mode"),
        }
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        let (mut x, mut keys) = match T::FORM {
            Form::Name(what) => return named(v, path, what),
            Form::Record(blank) => (blank(), Vec::new()),
            Form::Tagged { key, what } => (variant(v, path, key, what)?, vec![key]),
        };
        keys.extend(keys_of(&mut x));
        let pairs = v
            .as_obj()
            .ok_or_else(|| format!("{path}: expected an object"))?;
        for (i, (k, _)) in pairs.iter().enumerate() {
            if !keys.contains(&k.as_str()) {
                return Err(format!("{path}: unknown field `{k}`"));
            }
            if pairs[..i].iter().any(|(seen, _)| seen == k) {
                return Err(format!("{path}: duplicate field `{k}`"));
            }
        }
        let mut p = Pass::Decode(v, path, Ok(()));
        x.fields(&mut p);
        match p {
            Pass::Decode(_, _, result) => result.map(|()| x),
            _ => unreachable!("a pass keeps its mode"),
        }
    }
}

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        v.as_num()
            .ok_or_else(|| format!("{path}: expected a number"))
    }
}

impl Codec for u64 {
    fn encode(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        let n = f64::decode(v, path)?;
        if !(n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT_INT as f64) {
            return Err(format!("{path}: expected an exact nonnegative integer"));
        }
        Ok(n as u64)
    }
}

impl Codec for usize {
    fn encode(&self) -> Json {
        (*self as u64).encode()
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        Ok(u64::decode(v, path)? as usize)
    }
}

impl Codec for u32 {
    fn encode(&self) -> Json {
        u64::from(*self).encode()
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        u32::try_from(u64::decode(v, path)?)
            .map_err(|_| format!("{path}: value does not fit in 32 bits"))
    }
}

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{path}: expected a boolean")),
        }
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: expected a string"))
    }
}

/// Any value, kept as it is.
impl Codec for Json {
    fn encode(&self) -> Json {
        self.clone()
    }

    fn decode(v: &Json, _: &str) -> Result<Self, String> {
        Ok(v.clone())
    }
}

/// Elements decode at `path[i]`.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| format!("{path}: expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| T::decode(e, &format!("{path}[{i}]")))
            .collect()
    }
}

/// A topology shape.
impl Codec for [usize; 3] {
    fn encode(&self) -> Json {
        self.to_vec().encode()
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        Vec::<usize>::decode(v, path)?.try_into().map_err(|_| {
            format!("{path}: expected [cores_per_village, villages_per_cluster, clusters]")
        })
    }
}
