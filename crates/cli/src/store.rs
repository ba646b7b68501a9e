//! On-disk layout for datasets and sample volumes.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::path::Path;
use tracto::loaded::{acq_from_text, acq_to_text};
use tracto_diffusion::Acquisition;
use tracto_mcmc::SampleVolumes;
use tracto_trace::{TractoError, TractoResult};
use tracto_volume::io::{read_volume3, read_volume4, write_volume3, write_volume4};
use tracto_volume::{Mask, Volume3, Volume4};

fn create(path: &Path) -> TractoResult<BufWriter<File>> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| TractoError::io(format!("create {}", path.display()), e))
}

fn open(path: &Path) -> TractoResult<BufReader<File>> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| TractoError::io(format!("open {}", path.display()), e))
}

/// Write the acquisition protocol as text: `bval gx gy gz` per line.
pub fn write_acquisition(path: &Path, acq: &Acquisition) -> TractoResult<()> {
    fs::write(path, acq_to_text(acq))
        .map_err(|e| TractoError::io(format!("write {}", path.display()), e))
}

/// Read the protocol text file. Every row must be a measurement (finite
/// fields, a b-value in range, a gradient on diffusion-weighted rows); a
/// row that is not fails with a typed `Format` error naming its line.
pub fn read_acquisition(path: &Path) -> TractoResult<Acquisition> {
    let text = fs::read_to_string(path)
        .map_err(|e| TractoError::io(format!("read {}", path.display()), e))?;
    acq_from_text(&text).map_err(|e| TractoError::format_with(path.display().to_string(), e))
}

/// Save a dataset directory: `dwi.trv4`, `wm_mask.trv3`, `acq.txt`.
pub fn save_dataset(
    dir: &Path,
    dwi: &Volume4<f32>,
    mask: &Mask,
    acq: &Acquisition,
) -> TractoResult<()> {
    fs::create_dir_all(dir).map_err(|e| TractoError::io(format!("create {}", dir.display()), e))?;
    let path = dir.join("dwi.trv4");
    let mut f = create(&path)?;
    write_volume4(&mut f, dwi)
        .map_err(|e| TractoError::format_with(format!("write {}", path.display()), e))?;
    let mask_vol = mask.as_volume().map(|&b| if b { 1.0f32 } else { 0.0 });
    let path = dir.join("wm_mask.trv3");
    let mut f = create(&path)?;
    write_volume3(&mut f, &mask_vol)
        .map_err(|e| TractoError::format_with(format!("write {}", path.display()), e))?;
    write_acquisition(&dir.join("acq.txt"), acq)
}

/// Load a dataset directory.
pub fn load_dataset(dir: &Path) -> TractoResult<(Volume4<f32>, Mask, Acquisition)> {
    let path = dir.join("dwi.trv4");
    let mut f = open(&path)?;
    let dwi = read_volume4(&mut f)
        .map_err(|e| TractoError::format_with(format!("read {}", path.display()), e))?;
    let path = dir.join("wm_mask.trv3");
    let mut f = open(&path)?;
    let mask_vol: Volume3<f32> = read_volume3(&mut f)
        .map_err(|e| TractoError::format_with(format!("read {}", path.display()), e))?;
    let mask = Mask::threshold(&mask_vol, 0.5);
    let acq = read_acquisition(&dir.join("acq.txt"))?;
    if dwi.nt() != acq.len() {
        return Err(TractoError::format(format!(
            "dataset inconsistent: dwi has {} measurements, acq.txt {}",
            dwi.nt(),
            acq.len()
        )));
    }
    if dwi.dims() != mask.dims() {
        return Err(TractoError::format(
            "dataset inconsistent: mask dims differ from dwi",
        ));
    }
    Ok((dwi, mask, acq))
}

const SAMPLE_FILES: [&str; 6] = ["f1", "f2", "th1", "ph1", "th2", "ph2"];

/// Save the six sample volumes into a directory.
pub fn save_samples(dir: &Path, samples: &SampleVolumes) -> TractoResult<()> {
    fs::create_dir_all(dir).map_err(|e| TractoError::io(format!("create {}", dir.display()), e))?;
    let vols = [
        &samples.f1,
        &samples.f2,
        &samples.th1,
        &samples.ph1,
        &samples.th2,
        &samples.ph2,
    ];
    for (name, vol) in SAMPLE_FILES.iter().zip(vols) {
        let path = dir.join(format!("{name}.trv4"));
        let mut f = create(&path)?;
        write_volume4(&mut f, vol)
            .map_err(|e| TractoError::format_with(format!("write {}", path.display()), e))?;
    }
    Ok(())
}

/// Load six sample volumes from a directory.
pub fn load_samples(dir: &Path) -> TractoResult<SampleVolumes> {
    let load = |name: &str| -> TractoResult<Volume4<f32>> {
        let path = dir.join(format!("{name}.trv4"));
        let mut f = open(&path)?;
        read_volume4(&mut f)
            .map_err(|e| TractoError::format_with(format!("read {}", path.display()), e))
    };
    let f1 = load("f1")?;
    let f2 = load("f2")?;
    let th1 = load("th1")?;
    let ph1 = load("ph1")?;
    let th2 = load("th2")?;
    let ph2 = load("ph2")?;
    for v in [&f2, &th1, &ph1, &th2, &ph2] {
        if v.dims() != f1.dims() || v.nt() != f1.nt() {
            return Err(TractoError::format(
                "sample volumes have inconsistent shapes",
            ));
        }
    }
    Ok(SampleVolumes {
        f1,
        f2,
        th1,
        ph1,
        th2,
        ph2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;
    use tracto_trace::ErrorKind;
    use tracto_volume::Dim3;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tracto_cli_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dataset_roundtrip() {
        let dir = tmpdir("ds");
        let ds = datasets::single_bundle(Dim3::new(6, 5, 4), Some(25.0), 3);
        save_dataset(&dir, &ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        let (dwi, mask, acq) = load_dataset(&dir).unwrap();
        assert_eq!(dwi, ds.dwi);
        assert_eq!(mask.count(), ds.wm_mask.count());
        assert_eq!(acq.len(), ds.acq.len());
        for i in 0..acq.len() {
            assert!((acq.bval(i) - ds.acq.bval(i)).abs() < 1e-12);
            assert!((acq.grad(i) - ds.acq.grad(i)).norm() < 1e-12);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn samples_roundtrip() {
        let dir = tmpdir("sv");
        let mut sv = SampleVolumes::zeros(Dim3::new(3, 3, 3), 4);
        sv.f1.set(tracto_volume::Ijk::new(1, 1, 1), 2, 0.5);
        sv.ph2.set(tracto_volume::Ijk::new(2, 0, 1), 3, -1.25);
        save_samples(&dir, &sv).unwrap();
        let back = load_samples(&dir).unwrap();
        assert_eq!(back.f1, sv.f1);
        assert_eq!(back.ph2, sv.ph2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_are_io_errors() {
        let dir = tmpdir("missing");
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(err.to_string().contains("dwi.trv4"));
        let err = load_samples(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(err.to_string().contains("f1.trv4"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_volume_is_format_error_with_source() {
        use std::error::Error as _;
        let dir = tmpdir("trunc");
        let ds = datasets::single_bundle(Dim3::new(5, 4, 4), None, 2);
        save_dataset(&dir, &ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        // Chop the volume mid-payload: typed Format error, chained source.
        let path = dir.join("dwi.trv4");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("dwi.trv4"));
        assert!(err.source().is_some(), "volume error chained as source");
        // Garbage header is also a Format error, not a panic.
        fs::write(&path, b"not a volume at all").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acq_text_rejects_bad_rows() {
        let dir = tmpdir("acq");
        let path = dir.join("acq.txt");
        fs::write(&path, "0 0 0 0\n1000 1 0\n").unwrap();
        let err = read_acquisition(&path).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("4 columns"));
        fs::write(&path, "# comment only\n").unwrap();
        let err = read_acquisition(&path).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("no measurements"));
        // Rows that parse but are no measurement; each once made Step 1
        // panic or run silently.
        for (row, needle) in [
            ("nan 1 0 0", "non-finite value `NaN`"),
            ("-1000 1 0 0", "negative b-value -1000"),
            ("100001 1 0 0", "above the 100000 s/mm² ceiling"),
            ("1000 0 0 0", "b-value 1000 with no gradient direction"),
        ] {
            fs::write(&path, format!("0 0 0 0\n{row}\n")).unwrap();
            let err = read_acquisition(&path).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Format, "{row}");
            let msg = err.to_string();
            assert!(msg.contains("acq.txt: acq line 2: "), "{row}: {msg}");
            assert!(msg.contains(needle), "{row}: {msg}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
