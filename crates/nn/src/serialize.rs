//! Binary persistence for [`Params`]: a small self-describing format so
//! trained policies survive process restarts with no serialization
//! dependency.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "RSPW" | u32 version | u32 count
//! per entry: u32 name_len | name utf-8 | u32 rows | u32 cols | f32 data
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::params::Params;
use crate::tensor::Matrix;

const MAGIC: &[u8; 4] = b"RSPW";
const VERSION: u32 = 1;

/// Errors from reading or writing weight files.
#[derive(Debug)]
#[non_exhaustive]
pub enum WeightIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes do not form a valid weight file.
    Format(String),
}

impl fmt::Display for WeightIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightIoError::Io(e) => write!(f, "weight file i/o error: {e}"),
            WeightIoError::Format(m) => write!(f, "malformed weight file: {m}"),
        }
    }
}

impl Error for WeightIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WeightIoError::Io(e) => Some(e),
            WeightIoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for WeightIoError {
    fn from(e: io::Error) -> Self {
        WeightIoError::Io(e)
    }
}

/// Serializes `params` to any writer (pass `&mut writer` to keep it).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_params<W: Write>(mut w: W, params: &Params) -> Result<(), WeightIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for (name, m) in params.iter() {
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        w.write_all(&(m.rows() as u32).to_le_bytes())?;
        w.write_all(&(m.cols() as u32).to_le_bytes())?;
        for &x in m.as_slice() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a [`Params`] from any reader (pass `&mut reader` to keep
/// it).
///
/// # Errors
///
/// Returns [`WeightIoError::Format`] for bad magic/version/truncation or a
/// repeated weight name, and [`WeightIoError::Io`] for reader failures.
pub fn read_params<R: Read>(mut r: R) -> Result<Params, WeightIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WeightIoError::Format("bad magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(WeightIoError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let count = read_u32(&mut r)? as usize;
    let mut params = Params::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 1 << 20 {
            return Err(WeightIoError::Format("implausible name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| WeightIoError::Format("name is not utf-8".into()))?;
        let rows = read_u32(&mut r)? as usize;
        let cols = read_u32(&mut r)? as usize;
        if rows.saturating_mul(cols) > 1 << 28 {
            return Err(WeightIoError::Format("implausible matrix size".into()));
        }
        let mut data = vec![0f32; rows * cols];
        let mut buf = [0u8; 4];
        for x in &mut data {
            r.read_exact(&mut buf)?;
            *x = f32::from_le_bytes(buf);
        }
        if params.get(&name).is_some() {
            return Err(WeightIoError::Format(format!("duplicate weight {name:?}")));
        }
        params.insert(name, Matrix::from_vec(rows, cols, data));
    }
    Ok(params)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, WeightIoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Params {
        let mut p = Params::new();
        p.insert(
            "enc.w",
            Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]),
        );
        p.insert("enc.b", Matrix::col_from_slice(&[-1.0, 0.5]));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let mut buf = Vec::new();
        write_params(&mut buf, &p).unwrap();
        let q = read_params(buf.as_slice()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("respect_nn_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.rspw");
        let p = sample();
        write_params(std::fs::File::create(&path).unwrap(), &p).unwrap();
        let q = read_params(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(p, q);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_params(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, WeightIoError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RSPW");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_params(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation() {
        let p = sample();
        let mut buf = Vec::new();
        write_params(&mut buf, &p).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_params(buf.as_slice()).unwrap_err();
        assert!(matches!(err, WeightIoError::Io(_)));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut buf = Vec::new();
        write_params(&mut buf, &sample()).unwrap();
        // "enc.b" -> "enc.w": the second entry now repeats the first name
        let at = buf.windows(5).position(|w| w == b"enc.b").unwrap();
        buf[at + 4] = b'w';
        let err = read_params(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn empty_params_roundtrip() {
        let p = Params::new();
        let mut buf = Vec::new();
        write_params(&mut buf, &p).unwrap();
        let q = read_params(buf.as_slice()).unwrap();
        assert!(q.is_empty());
    }
}
