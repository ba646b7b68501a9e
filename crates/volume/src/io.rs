//! Minimal binary (de)serialization for volumes.
//!
//! A deliberately tiny self-describing little-endian format (`TRV3`/`TRV4`
//! magic + dims + raw f32 payload) so phantom datasets and MCMC sample
//! volumes can be cached on disk between pipeline steps without pulling in a
//! full NIfTI implementation.

use crate::{Dim3, Volume3, Volume4, VolumeError};
use std::io::{Read, Write};

const MAGIC3: &[u8; 4] = b"TRV3";
const MAGIC4: &[u8; 4] = b"TRV4";
const VERSION: u32 = 1;
/// Payload bytes reserved before any arrive; the buffer grows from there.
const PAYLOAD_CHUNK: usize = 1 << 16;

fn write_volume(
    w: &mut impl Write,
    magic: &[u8; 4],
    dims: Dim3,
    nt: u32,
    data: &[f32],
) -> Result<(), VolumeError> {
    let mut buf = Vec::with_capacity(36 + data.len() * 4);
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    for n in [dims.nx, dims.ny, dims.nz] {
        buf.extend_from_slice(&(n as u64).to_le_bytes());
    }
    buf.extend_from_slice(&nt.to_le_bytes());
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Read a header and then its payload. The element count is a checked
/// product of the untrusted extents, and the payload buffer grows with the
/// bytes that arrive, not with the count the header announces.
fn read_volume(r: &mut impl Read, magic: &[u8; 4]) -> Result<(Dim3, u32, Vec<f32>), VolumeError> {
    let mut h = [0u8; 36];
    r.read_exact(&mut h)?;
    let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4 bytes"));
    let extent = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
    if &h[..4] != magic {
        return Err(VolumeError::BadFormat(format!(
            "bad magic {:?}, expected {:?}",
            &h[..4],
            magic
        )));
    }
    let version = word(4);
    if version != VERSION {
        return Err(VolumeError::BadFormat(format!(
            "unsupported version {version}"
        )));
    }
    let (nx, ny, nz, nt) = (extent(8), extent(16), extent(24), word(32));
    let len = [ny, nz, nt as u64, 4]
        .into_iter()
        .try_fold(nx, u64::checked_mul)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| {
            VolumeError::BadFormat(format!(
                "extents {nx}x{ny}x{nz}x{nt} overflow the payload size"
            ))
        })?;
    let mut bytes = Vec::with_capacity(len.min(PAYLOAD_CHUNK));
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let data = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    Ok((Dim3::new(nx as usize, ny as usize, nz as usize), nt, data))
}

/// Serialize a `Volume3<f32>` to a writer.
pub fn write_volume3(w: &mut impl Write, v: &Volume3<f32>) -> Result<(), VolumeError> {
    write_volume(w, MAGIC3, v.dims(), 1, v.as_slice())
}

/// Deserialize a `Volume3<f32>` from a reader.
pub fn read_volume3(r: &mut impl Read) -> Result<Volume3<f32>, VolumeError> {
    let (dims, nt, data) = read_volume(r, MAGIC3)?;
    if nt != 1 {
        return Err(VolumeError::BadFormat(format!(
            "Volume3 stream with nt={nt}"
        )));
    }
    Volume3::from_vec(dims, data)
}

/// Serialize a `Volume4<f32>` to a writer.
pub fn write_volume4(w: &mut impl Write, v: &Volume4<f32>) -> Result<(), VolumeError> {
    write_volume(w, MAGIC4, v.dims(), v.nt() as u32, v.as_slice())
}

/// Deserialize a `Volume4<f32>` from a reader.
pub fn read_volume4(r: &mut impl Read) -> Result<Volume4<f32>, VolumeError> {
    let (dims, nt, data) = read_volume(r, MAGIC4)?;
    if nt == 0 {
        return Err(VolumeError::BadFormat("Volume4 stream with nt=0".into()));
    }
    Volume4::from_vec(dims, nt as usize, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ijk;

    #[test]
    fn volume3_roundtrip() {
        let v = Volume3::from_fn(Dim3::new(3, 4, 5), |c| (c.i * 100 + c.j * 10 + c.k) as f32);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        let back = read_volume3(&mut buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn volume4_roundtrip() {
        let v = Volume4::from_fn(Dim3::new(2, 3, 2), 4, |c, t| {
            (c.i + c.j + c.k + t) as f32 * 0.5
        });
        let mut buf = Vec::new();
        write_volume4(&mut buf, &v).unwrap();
        let back = read_volume4(&mut buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn bad_magic_rejected() {
        let v = Volume3::filled(Dim3::new(1, 1, 1), 0.0f32);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_volume3(&mut buf.as_slice()),
            Err(VolumeError::BadFormat(_))
        ));
    }

    #[test]
    fn magic_mismatch_between_3_and_4() {
        let v = Volume3::filled(Dim3::new(1, 1, 1), 1.0f32);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        assert!(read_volume4(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let v = Volume3::from_fn(Dim3::new(2, 2, 2), |c| c.i as f32);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_volume3(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn special_values_roundtrip() {
        let mut v = Volume3::filled(Dim3::new(2, 1, 1), 0.0f32);
        v.set(Ijk::new(0, 0, 0), f32::INFINITY);
        v.set(Ijk::new(1, 0, 0), -0.0);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        let back = read_volume3(&mut buf.as_slice()).unwrap();
        assert_eq!(back.as_slice()[0], f32::INFINITY);
        assert_eq!(back.as_slice()[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn bad_version_rejected() {
        let v = Volume3::filled(Dim3::new(1, 1, 1), 0.0f32);
        let mut buf = Vec::new();
        write_volume3(&mut buf, &v).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_volume3(&mut buf.as_slice()),
            Err(VolumeError::BadFormat(_))
        ));
    }

    /// A TRV4 header announcing `nx x ny x nz x nt` with no payload.
    fn header4(nx: u64, ny: u64, nz: u64, nt: u32) -> Vec<u8> {
        let mut h = MAGIC4.to_vec();
        h.extend_from_slice(&VERSION.to_le_bytes());
        for n in [nx, ny, nz] {
            h.extend_from_slice(&n.to_le_bytes());
        }
        h.extend_from_slice(&nt.to_le_bytes());
        h
    }

    #[test]
    fn overflowing_extents_are_bad_format() {
        for (nx, ny, nz, nt) in [(1 << 62 | 1, 1, 1, 1), (1 << 22, 1 << 22, 1 << 22, 1)] {
            let err = read_volume4(&mut header4(nx, ny, nz, nt).as_slice()).unwrap_err();
            assert!(
                matches!(&err, VolumeError::BadFormat(m) if m.contains("overflow")),
                "{nx}x{ny}x{nz}x{nt}: {err}"
            );
        }
    }
}
