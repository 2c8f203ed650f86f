//! Declared messages: one `message!` invocation per wire type gives its tags,
//! variants and fields, and the type, its [`WireEncode`] and its
//! [`WireDecode`] all derive from it.
//!
//! A body is the fields in order, each written by its type's [`Field`]
//! codec, or by the [`Codec`] named after `as` in the declaration: scalars
//! and byte arrays fixed-width, strings and byte blobs length-prefixed, a
//! `Box`ed scheme value [`Nested`] (a `u32` length, then its bare body at
//! the container's version), any other `Vec` as a `u64` count checked
//! against the bytes left before anything is reserved, and a field that
//! does not travel (a lazily built cache) [`Unsent`].  Each field type's
//! codec is written once, in the crate that owns the type.  A type that
//! must be validated where it enters (a group element) has that validation
//! as its field codec, so no declared field can skip it.

use crate::{decode_bare, DecodeError, Reader, WireDecode, WireEncode, Writer};

/// How one field of a declared message travels.  `C` is its message's
/// decode context.
pub trait Field<C>: Sized {
    /// Appends the field.
    fn put(&self, w: &mut Writer);
    /// Reads the field.
    fn read(r: &mut Reader<'_>, ctx: &C) -> Result<Self, DecodeError>;
}

/// A codec for a field of type `T` other than `T`'s own [`Field`] codec,
/// named in a declaration as `field: T as Codec`.
pub trait Codec<T, C> {
    /// Appends `value`.
    fn put(value: &T, w: &mut Writer);
    /// Reads a value.
    fn read(r: &mut Reader<'_>, ctx: &C) -> Result<T, DecodeError>;
}

/// A value nested in its container: a `u32` length, then its bare body,
/// read at the container's version.
pub struct Nested;

impl<T: WireEncode + WireDecode> Codec<T, T::Ctx> for Nested {
    fn put(value: &T, w: &mut Writer) {
        w.put_nested(|w| value.encode(w));
    }
    fn read(r: &mut Reader<'_>, ctx: &T::Ctx) -> Result<T, DecodeError> {
        let version = r.version();
        decode_bare(r.bytes()?, version, ctx)
    }
}

/// A boxed value written in place: its bare body, with no length (the body
/// must delimit itself).
pub struct Inline;

impl<T: WireEncode + WireDecode> Codec<Box<T>, T::Ctx> for Inline {
    fn put(value: &Box<T>, w: &mut Writer) {
        value.encode(w);
    }
    fn read(r: &mut Reader<'_>, ctx: &T::Ctx) -> Result<Box<T>, DecodeError> {
        Ok(Box::new(T::decode(r, ctx)?))
    }
}

/// A field that does not travel: nothing is written, and a decode starts
/// it at its `Default` (a cache that refills on first use).
pub struct Unsent;

impl<T: Default, C> Codec<T, C> for Unsent {
    fn put(_: &T, _: &mut Writer) {}
    fn read(_: &mut Reader<'_>, _: &C) -> Result<T, DecodeError> {
        Ok(T::default())
    }
}

impl<T: WireEncode + WireDecode> Field<T::Ctx> for Box<T> {
    fn put(&self, w: &mut Writer) {
        Nested::put(&**self, w);
    }
    fn read(r: &mut Reader<'_>, ctx: &T::Ctx) -> Result<Self, DecodeError> {
        Ok(Box::new(Nested::read(r, ctx)?))
    }
}

/// Declares one message: an enum whose variants carry their tag
/// (`tag => Variant { fields }` or `tag => Variant(name: Type)`), or a
/// struct whose fields travel in order with no tag.  A field is
/// `name: Type`, or `name: Type as Codec`.  Its `fields` form gives the
/// codec of a self-contained field type: how a value `v` is written to `w`,
/// and how one is read from `r`.
#[macro_export]
macro_rules! message {
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident: $what:literal, $ctx:ty {
            $(
                $(#[$vattr:meta])*
                $tag:literal => $variant:ident
                    $({ $($(#[$fattr:meta])* $field:ident: $fty:ty $(as $via:ty)?,)* })?
                    $(($arg:ident: $aty:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant $({ $($(#[$fattr])* $field: $fty,)* })? $(($aty))?,)*
        }

        impl $name {
            /// The variant's short name, for logs and error messages (a
            /// `Debug` rendering would dump whole ciphertexts).
            pub fn kind(&self) -> &'static str {
                match self { $(Self::$variant { .. } => stringify!($variant),)* }
            }
        }

        impl $crate::WireEncode for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $(Self::$variant { $($($field,)*)? $(0: $arg)? } => {
                        w.put_u8($tag);
                        $($($crate::message!(@put w, $field, $fty, $ctx $(, $via)?);)*)?
                        $($crate::message!(@put w, $arg, $aty, $ctx);)?
                    })*
                }
            }
        }

        impl $crate::WireDecode for $name {
            type Ctx = $ctx;

            fn decode(
                r: &mut $crate::Reader<'_>,
                ctx: &$ctx,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                let offset = r.offset();
                Ok(match r.u8()? {
                    $($tag => Self::$variant {
                        $($($field: $crate::message!(@read r, ctx, $fty, $ctx $(, $via)?),)*)?
                        $(0: $crate::message!(@read r, ctx, $aty, $ctx))?
                    },)*
                    tag => return Err($crate::DecodeError::invalid_tag(offset, $what, tag)),
                })
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident: $ctx:ty {
            $($(#[$fattr:meta])* $fvis:vis $field:ident: $fty:ty $(as $via:ty)?,)*
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $field: $fty,)*
        }

        impl $name {
            /// Writes the fields from borrowed values, in declaration order
            /// (what `encode` does with `self`'s): one argument per field.
            #[allow(dead_code, clippy::too_many_arguments)]
            pub(crate) fn put_fields(w: &mut $crate::Writer, $($field: &$fty),*) {
                $($crate::message!(@put w, $field, $fty, $ctx $(, $via)?);)*
            }
        }

        impl $crate::WireEncode for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                Self::put_fields(w, $(&self.$field),*);
            }
        }

        impl $crate::WireDecode for $name {
            type Ctx = $ctx;

            fn decode(
                r: &mut $crate::Reader<'_>,
                ctx: &$ctx,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                Ok(Self { $($field: $crate::message!(@read r, ctx, $fty, $ctx $(, $via)?),)* })
            }
        }
    };
    (fields { $($ty:ty: |$w:ident, $v:ident| $put:expr, |$r:ident| $read:expr;)* }) => {
        $(impl<C> $crate::Field<C> for $ty {
            fn put(&self, $w: &mut $crate::Writer) { let $v = self; $put; }
            fn read($r: &mut $crate::Reader<'_>, _: &C) -> ::core::result::Result<Self, $crate::DecodeError> {
                $read
            }
        })*
    };
    (@put $w:ident, $value:expr, $fty:ty, $ctx:ty) => {
        <$fty as $crate::Field<$ctx>>::put($value, $w)
    };
    (@put $w:ident, $value:expr, $fty:ty, $ctx:ty, $via:ty) => {
        <$via as $crate::Codec<$fty, $ctx>>::put($value, $w)
    };
    (@read $r:ident, $ctx_value:ident, $fty:ty, $ctx:ty) => {
        <$fty as $crate::Field<$ctx>>::read($r, $ctx_value)?
    };
    (@read $r:ident, $ctx_value:ident, $fty:ty, $ctx:ty, $via:ty) => {
        <$via as $crate::Codec<$fty, $ctx>>::read($r, $ctx_value)?
    };
}

message! {
    fields {
        u64: |w, v| w.put_u64(*v), |r| r.u64();
        // A flag (a `bool`, or an `Option`'s presence) is one byte, 0 or 1.
        bool: |w, v| w.put_u8(u8::from(*v)), |r| match (r.offset(), r.u8()?) {
            (_, tag @ (0 | 1)) => Ok(tag == 1),
            (offset, tag) => Err(DecodeError::invalid_tag(offset, "flag", tag)),
        };
        String: |w, v| w.put_bytes(v.as_bytes()), |r| r.string();
        // Raw bytes: a blob, not a counted `Vec`.
        Vec<u8>: |w, v| w.put_bytes(v), |r| Ok(r.bytes()?.to_vec());
        [u64; 8]: |w, v| v.iter().for_each(|x| w.put_u64(*x)), |r| {
            let mut values = [0; 8];
            for x in &mut values { *x = r.u64()?; }
            Ok(values)
        };
    }
}

/// A fixed-size byte array travels as its bytes, with no length.
impl<C, const N: usize> Field<C> for [u8; N] {
    fn put(&self, w: &mut Writer) {
        w.put_slice(self);
    }
    fn read(r: &mut Reader<'_>, _: &C) -> Result<Self, DecodeError> {
        Ok(r.take(N)?.try_into().expect("N bytes"))
    }
}

impl<C, T: Field<C>> Field<C> for Option<T> {
    fn put(&self, w: &mut Writer) {
        Field::<C>::put(&self.is_some(), w);
        self.iter().for_each(|value| value.put(w));
    }
    fn read(r: &mut Reader<'_>, ctx: &C) -> Result<Self, DecodeError> {
        let present = <bool as Field<C>>::read(r, ctx)?;
        present.then(|| T::read(r, ctx)).transpose()
    }
}

/// An element of a counted `Vec`, with its least encoded size (a nested
/// value's is its `u32` length).
pub trait Elem {
    /// The fewest bytes one element can encode to.
    const MIN_LEN: usize = 4;
}

impl Elem for u64 {
    const MIN_LEN: usize = 8;
}

impl<C, T: Elem + Field<C>> Field<C> for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        self.iter().for_each(|value| value.put(w));
    }

    /// The count, and the memory reserved for it, are bounded by the bytes
    /// that remain: a hostile count can neither outrun nor outgrow the input.
    fn read(r: &mut Reader<'_>, ctx: &C) -> Result<Self, DecodeError> {
        let offset = r.offset();
        let count = r.u64()?;
        if count > (r.remaining() / T::MIN_LEN) as u64 {
            return Err(DecodeError::invalid(offset, "element count exceeds input"));
        }
        let mut values = Vec::with_capacity((count as usize).min(r.remaining() / size_of::<T>()));
        (0..count).try_for_each(|_| T::read(r, ctx).map(|value| values.push(value)))?;
        Ok(values)
    }
}
