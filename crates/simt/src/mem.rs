//! Simulated device memory: global buffers and per-block shared arenas.

use darm_ir::Type;

/// Handle to a global-memory buffer allocated on a [`crate::Gpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) u32);

/// The byte-offset bits of an encoded address.
pub(crate) const OFFSET_MASK: u64 = 0xFFFF_FFFF_FFFF;

/// Pointers are 64-bit: buffer id (1-based) in the high 16 bits, byte offset
/// in the low 48. Shared-memory pointers use buffer id 0 with the offset
/// addressing the block's shared arena.
pub(crate) fn encode_global(buf: BufferId, offset: u64) -> u64 {
    ((buf.0 as u64 + 1) << 48) | (offset & OFFSET_MASK)
}

pub(crate) fn encode_shared(offset: u64) -> u64 {
    offset & OFFSET_MASK
}

pub(crate) fn decode(addr: u64) -> (Option<BufferId>, u64) {
    let hi = addr >> 48;
    let off = addr & OFFSET_MASK;
    if hi == 0 {
        (None, off)
    } else {
        (Some(BufferId((hi - 1) as u32)), off)
    }
}

/// A raw byte store with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct ByteStore {
    bytes: Vec<u8>,
}

impl ByteStore {
    pub(crate) fn with_len(len: usize) -> ByteStore {
        ByteStore {
            bytes: vec![0; len],
        }
    }

    pub(crate) fn from_bytes(bytes: Vec<u8>) -> ByteStore {
        ByteStore { bytes }
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    pub(crate) fn read(&self, ty: Type, off: u64) -> Option<RawVal> {
        let size = ty.size_bytes() as usize;
        let off = off as usize;
        let slice = self.bytes.get(off..off + size)?;
        Some(match ty {
            Type::I1 => RawVal::I1(slice[0] != 0),
            Type::I32 => RawVal::I32(i32::from_le_bytes(slice.try_into().unwrap())),
            Type::F32 => RawVal::F32(f32::from_le_bytes(slice.try_into().unwrap())),
            Type::I64 => RawVal::I64(i64::from_le_bytes(slice.try_into().unwrap())),
            Type::Ptr(_) => RawVal::Ptr(u64::from_le_bytes(slice.try_into().unwrap())),
            Type::Void => return None,
        })
    }

    /// Typed read straight into a register cell of the bytecode engine
    /// (encoding: [`RawVal::cell`]).
    pub(crate) fn read_cell(&self, ty: Type, off: u64) -> Option<u64> {
        let off = off as usize;
        Some(match ty {
            Type::I1 => (*self.bytes.get(off)? != 0) as u64,
            Type::I32 => {
                i32::from_le_bytes(self.bytes.get(off..off + 4)?.try_into().unwrap()) as i64 as u64
            }
            Type::F32 => {
                u32::from_le_bytes(self.bytes.get(off..off + 4)?.try_into().unwrap()) as u64
            }
            Type::I64 | Type::Ptr(_) => {
                u64::from_le_bytes(self.bytes.get(off..off + 8)?.try_into().unwrap())
            }
            Type::Void => return None,
        })
    }

    /// Typed write of a register cell holding a defined value of type `ty`.
    pub(crate) fn write_cell(&mut self, ty: Type, off: u64, cell: u64) -> Option<()> {
        let off = off as usize;
        match ty {
            Type::I1 => *self.bytes.get_mut(off)? = cell as u8,
            Type::I32 | Type::F32 => self
                .bytes
                .get_mut(off..off + 4)?
                .copy_from_slice(&(cell as u32).to_le_bytes()),
            Type::I64 | Type::Ptr(_) => self
                .bytes
                .get_mut(off..off + 8)?
                .copy_from_slice(&cell.to_le_bytes()),
            Type::Void => return None,
        }
        Some(())
    }

    pub(crate) fn write(&mut self, off: u64, v: RawVal) -> Option<()> {
        let off = off as usize;
        match v {
            RawVal::I1(x) => *self.bytes.get_mut(off)? = x as u8,
            RawVal::I32(x) => self
                .bytes
                .get_mut(off..off + 4)?
                .copy_from_slice(&x.to_le_bytes()),
            RawVal::F32(x) => self
                .bytes
                .get_mut(off..off + 4)?
                .copy_from_slice(&x.to_le_bytes()),
            RawVal::I64(x) => self
                .bytes
                .get_mut(off..off + 8)?
                .copy_from_slice(&x.to_le_bytes()),
            RawVal::Ptr(x) => self
                .bytes
                .get_mut(off..off + 8)?
                .copy_from_slice(&x.to_le_bytes()),
            RawVal::Undef => return None,
        }
        Some(())
    }
}

/// A runtime lane value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawVal {
    /// Boolean.
    I1(bool),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// Pointer (encoded address).
    Ptr(u64),
    /// Undefined (reading it through memory or branching on it is an error).
    Undef,
}

impl RawVal {
    /// The value as an untagged register cell of the bytecode engine:
    /// `i1` as 0/1, `i32` sign-extended to 64 bits, `i64`/pointers as they
    /// are, `f32` as its zero-extended IEEE-754 bits. `None` for `Undef`,
    /// which the engine keeps in a separate definedness mask.
    pub(crate) fn cell(self) -> Option<u64> {
        Some(match self {
            RawVal::I1(b) => b as u64,
            RawVal::I32(x) => x as i64 as u64,
            RawVal::I64(x) => x as u64,
            RawVal::F32(f) => f.to_bits() as u64,
            RawVal::Ptr(p) => p,
            RawVal::Undef => return None,
        })
    }

    pub(crate) fn as_i64_index(self) -> Option<i64> {
        match self {
            RawVal::I32(x) => Some(x as i64),
            RawVal::I64(x) => Some(x),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let addr = encode_global(BufferId(7), 1234);
        assert_eq!(decode(addr), (Some(BufferId(7)), 1234));
        let saddr = encode_shared(64);
        assert_eq!(decode(saddr), (None, 64));
    }

    #[test]
    fn typed_read_write() {
        let mut s = ByteStore::with_len(64);
        s.write(0, RawVal::I32(-5)).unwrap();
        s.write(8, RawVal::F32(2.5)).unwrap();
        s.write(16, RawVal::I64(1 << 40)).unwrap();
        assert_eq!(s.read(Type::I32, 0), Some(RawVal::I32(-5)));
        assert_eq!(s.read(Type::F32, 8), Some(RawVal::F32(2.5)));
        assert_eq!(s.read(Type::I64, 16), Some(RawVal::I64(1 << 40)));
    }

    #[test]
    fn cells_agree_with_tagged_values() {
        // The oracle's tagged accessors and the engine's cell accessors are
        // two views of the same bytes.
        let vals = [
            (Type::I1, RawVal::I1(true)),
            (Type::I32, RawVal::I32(i32::MIN)),
            (Type::I32, RawVal::I32(-1)),
            (Type::F32, RawVal::F32(-0.0)),
            (Type::I64, RawVal::I64(i64::MIN + 7)),
            (Type::Ptr(darm_ir::AddrSpace::Global), RawVal::Ptr(3 << 48)),
        ];
        for (ty, v) in vals {
            let cell = v.cell().unwrap();
            let (mut tagged, mut cells) = (ByteStore::with_len(8), ByteStore::with_len(8));
            tagged.write(0, v).unwrap();
            cells.write_cell(ty, 0, cell).unwrap();
            assert_eq!(tagged.bytes(), cells.bytes(), "{v:?}");
            assert_eq!(tagged.read_cell(ty, 0), Some(cell), "{v:?}");
            assert_eq!(tagged.read(ty, 0).and_then(RawVal::cell), Some(cell));
        }
        assert_eq!(RawVal::Undef.cell(), None);
        assert_eq!(ByteStore::with_len(3).read_cell(Type::I32, 0), None);
        assert_eq!(ByteStore::with_len(8).write_cell(Type::I64, 1, 0), None);
    }

    #[test]
    fn out_of_bounds_read_is_none() {
        let s = ByteStore::with_len(4);
        assert!(s.read(Type::I64, 0).is_none());
        assert!(s.read(Type::I32, 2).is_none());
    }
}
