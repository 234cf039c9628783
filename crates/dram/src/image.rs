//! Functional memory image.

/// A flat byte array with typed little-endian accessors, holding the graph
/// memory layout of Fig. 4 (vertex arrays, shards of compressed edges, and
/// edge pointers).
///
/// The timing model ([`crate::MemorySystem`]) decides *when* data moves;
/// consumers read/write this image at the moment a response arrives, so
/// simulated algorithms operate on real values.
///
/// # Example
///
/// ```
/// use dram::MemImage;
/// let mut img = MemImage::new(64);
/// img.write_u32(8, 0xDEAD_BEEF);
/// assert_eq!(img.read_u32(8), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    bytes: Vec<u8>,
}

impl MemImage {
    /// Allocates a zero-filled image of `size` bytes.
    pub fn new(size: usize) -> Self {
        MemImage {
            bytes: vec![0; size],
        }
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for a zero-byte image.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Grows the image to at least `size` bytes (zero filled).
    pub fn ensure_len(&mut self, size: usize) {
        if self.bytes.len() < size {
            self.bytes.resize(size, 0);
        }
    }

    /// Reads a `u32` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the image size.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.bytes[a..a + 4].try_into().expect("4 bytes"))
    }

    /// Writes a `u32` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the image size.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the image size.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("8 bytes"))
    }

    /// Writes a `u64` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the image size.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f32` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the image size.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the image size.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Borrows a byte range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the image size.
    pub fn slice(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        &self.bytes[a..a + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let mut img = MemImage::new(16);
        img.write_u32(4, 123456);
        assert_eq!(img.read_u32(4), 123456);
        // Unwritten bytes are zero.
        assert_eq!(img.read_u32(8), 0);
    }

    #[test]
    fn u64_round_trip() {
        let mut img = MemImage::new(32);
        img.write_u64(8, u64::MAX - 5);
        assert_eq!(img.read_u64(8), u64::MAX - 5);
    }

    #[test]
    fn f32_round_trip_preserves_bits() {
        let mut img = MemImage::new(8);
        img.write_f32(0, 0.15 / 3.0);
        assert_eq!(img.read_f32(0), 0.15 / 3.0);
        img.write_f32(4, f32::INFINITY);
        assert!(img.read_f32(4).is_infinite());
    }

    #[test]
    fn little_endian_layout() {
        let mut img = MemImage::new(8);
        img.write_u32(0, 0x0403_0201);
        assert_eq!(img.slice(0, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn ensure_len_grows_only() {
        let mut img = MemImage::new(4);
        img.ensure_len(16);
        assert_eq!(img.len(), 16);
        img.ensure_len(8);
        assert_eq!(img.len(), 16);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let img = MemImage::new(4);
        let _ = img.read_u32(2);
    }
}
