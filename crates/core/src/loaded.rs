//! Datasets loaded from real data rather than synthesized from a phantom
//! recipe — the receiving end of the protocol's chunked volume uploads.
//!
//! An uploaded volume travels (and is staged on disk) as a single **TRDS**
//! container: an 8-byte magic followed by three length-prefixed sections
//! holding exactly the bytes of the dataset directory layout the CLI
//! already writes — `dwi.trv4`, `wm_mask.trv3` (f32, thresholded at 0.5),
//! and `acq.txt` (`bval gx gy gz` rows). One blob means one content hash
//! names the whole dataset, and the on-disk store stays a flat file per
//! upload.
//!
//! A loaded [`Dataset`] carries a placeholder ground-truth field
//! ([`GroundTruthField::from_mask`]) whose fiber mask equals the uploaded
//! white-matter mask, so mask-driven seeding works unchanged; truth-based
//! accuracy metrics are meaningless for uploads and must not be reported.

use tracto_diffusion::Acquisition;
use tracto_phantom::datasets::{Dataset, DatasetSpec};
use tracto_phantom::field::GroundTruthField;
use tracto_phantom::signal::TissueParams;
use tracto_trace::{TractoError, TractoResult};
use tracto_volume::io::{read_volume3, read_volume4, write_volume3, write_volume4};
use tracto_volume::{Mask, Vec3, Volume3, Volume4, VoxelGrid};

/// Leading magic of a TRDS container (version byte included).
pub const TRDS_MAGIC: &[u8; 8] = b"TRDS\x01\r\n\0";

/// Stick fraction assigned to every in-mask voxel of the placeholder
/// truth field.
const PLACEHOLDER_FRACTION: f64 = 0.5;

/// b-values at or below this (s/mm²) count as b=0 measurements.
const B0_THRESHOLD: f64 = 50.0;

/// Largest b-value (s/mm²) a protocol row may carry. Diffusion protocols
/// stay far below it; a larger value is a corrupt protocol whose
/// `exp(-b·d)` terms and tensor fit degenerate (overflowing design rows,
/// non-finite eigenvalues) instead of describing a measurement.
pub const MAX_BVAL: f64 = 1e5;

/// Render an acquisition as protocol text: one `bval gx gy gz` row per
/// measurement — byte-identical to the CLI's `acq.txt`.
pub fn acq_to_text(acq: &Acquisition) -> String {
    let mut out = String::new();
    for i in 0..acq.len() {
        let g = acq.grad(i);
        out.push_str(&format!("{} {} {} {}\n", acq.bval(i), g.x, g.y, g.z));
    }
    out
}

/// Parse protocol text (blank lines and `#` comments allowed). Every field
/// must be finite, every b-value in `[0, MAX_BVAL]`, and every b > 0 row
/// must carry a gradient that normalizes to a direction; a row that is not
/// fails with a typed `Format` error naming its line.
pub fn acq_from_text(text: &str) -> TractoResult<Acquisition> {
    let rows = acq_rows(text)?;
    rows.check_values()?;
    Ok(Acquisition::new(rows.bvals, rows.grads))
}

/// The parsed rows of protocol text, not yet an [`Acquisition`], so a
/// caller can check the row count before any per-row work.
struct AcqRows {
    bvals: Vec<f64>,
    grads: Vec<Vec3>,
    /// 1-based text line of each row, for error messages.
    lines: Vec<usize>,
}

fn acq_rows(text: &str) -> TractoResult<AcqRows> {
    let mut bvals = Vec::new();
    let mut grads = Vec::new();
    let mut lines = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parts: Vec<f64> = trimmed
            .split_whitespace()
            .map(|t| {
                t.parse().map_err(|_| {
                    TractoError::format(format!("acq line {}: bad number `{t}`", lineno + 1))
                })
            })
            .collect::<TractoResult<_>>()?;
        if parts.len() != 4 {
            return Err(TractoError::format(format!(
                "acq line {}: expected 4 columns",
                lineno + 1
            )));
        }
        lines.push(lineno + 1);
        bvals.push(parts[0]);
        grads.push(Vec3::new(parts[1], parts[2], parts[3]));
    }
    if bvals.is_empty() {
        return Err(TractoError::format("acq text: no measurements"));
    }
    Ok(AcqRows {
        bvals,
        grads,
        lines,
    })
}

impl AcqRows {
    /// Refuse a row that is no measurement. `f64::from_str` accepts `nan`,
    /// `inf` and `1e300`, and each would reach Step 1's tensor fit and `exp`.
    /// A diffusion-weighted row whose gradient normalizes to zero (a zero
    /// vector, or one whose norm overflows) would be modelled as isotropic.
    fn check_values(&self) -> TractoResult<()> {
        for ((&b, g), line) in self.bvals.iter().zip(&self.grads).zip(&self.lines) {
            if let Some(v) = [b, g.x, g.y, g.z].into_iter().find(|v| !v.is_finite()) {
                return Err(TractoError::format(format!(
                    "acq line {line}: non-finite value `{v}`"
                )));
            }
            if b < 0.0 {
                return Err(TractoError::format(format!(
                    "acq line {line}: negative b-value {b}"
                )));
            }
            if b > MAX_BVAL {
                return Err(TractoError::format(format!(
                    "acq line {line}: b-value {b} above the {MAX_BVAL} s/mm² ceiling"
                )));
            }
            // The same test `Acquisition::new` applies before normalizing.
            if b > 0.0 && g.normalized() == Vec3::ZERO {
                return Err(TractoError::format(format!(
                    "acq line {line}: b-value {b} with no gradient direction"
                )));
            }
        }
        Ok(())
    }
}

fn push_section(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Serialize a dataset's components into one TRDS container blob.
pub fn encode_trds(dwi: &Volume4<f32>, mask: &Mask, acq: &Acquisition) -> TractoResult<Vec<u8>> {
    let mut dwi_bytes = Vec::new();
    write_volume4(&mut dwi_bytes, dwi)
        .map_err(|e| TractoError::format_with("encode dwi section", e))?;
    let mask_vol = mask.as_volume().map(|&b| if b { 1.0f32 } else { 0.0 });
    let mut mask_bytes = Vec::new();
    write_volume3(&mut mask_bytes, &mask_vol)
        .map_err(|e| TractoError::format_with("encode mask section", e))?;
    let acq_bytes = acq_to_text(acq).into_bytes();

    let mut out = Vec::with_capacity(8 + 24 + dwi_bytes.len() + mask_bytes.len() + acq_bytes.len());
    out.extend_from_slice(TRDS_MAGIC);
    push_section(&mut out, &dwi_bytes);
    push_section(&mut out, &mask_bytes);
    push_section(&mut out, &acq_bytes);
    Ok(out)
}

fn take_section<'a>(rest: &mut &'a [u8], what: &str) -> TractoResult<&'a [u8]> {
    if rest.len() < 8 {
        return Err(TractoError::format(format!(
            "TRDS container truncated before the {what} section length"
        )));
    }
    let (prefix, tail) = rest.split_at(8);
    let len = u64::from_be_bytes(prefix.try_into().expect("8 bytes")) as usize;
    if tail.len() < len {
        return Err(TractoError::format(format!(
            "TRDS container truncated inside the {what} section ({} of {len} bytes)",
            tail.len()
        )));
    }
    let (section, tail) = tail.split_at(len);
    *rest = tail;
    Ok(section)
}

/// Parse a TRDS container back into its components, validating shape
/// consistency (mask dims = dwi dims, acq rows = dwi measurements) and that
/// every DWI sample is finite — a NaN or ±∞ would otherwise panic Step 1
/// (the sampler's support check, the tensor fit) instead of failing the
/// job with a typed error.
pub fn decode_trds(bytes: &[u8]) -> TractoResult<(Volume4<f32>, Mask, Acquisition)> {
    let Some(rest) = bytes.strip_prefix(TRDS_MAGIC.as_slice()) else {
        return Err(TractoError::format(
            "not a TRDS container (bad or missing magic)",
        ));
    };
    let mut rest = rest;
    let dwi_bytes = take_section(&mut rest, "dwi")?;
    let mask_bytes = take_section(&mut rest, "mask")?;
    let acq_bytes = take_section(&mut rest, "acq")?;
    if !rest.is_empty() {
        return Err(TractoError::format(format!(
            "TRDS container has {} trailing bytes",
            rest.len()
        )));
    }
    let dwi = read_volume4(&mut { dwi_bytes })
        .map_err(|e| TractoError::format_with("decode dwi section", e))?;
    let mask_vol: Volume3<f32> = read_volume3(&mut { mask_bytes })
        .map_err(|e| TractoError::format_with("decode mask section", e))?;
    let mask = Mask::threshold(&mask_vol, 0.5);
    let acq_text = std::str::from_utf8(acq_bytes)
        .map_err(|_| TractoError::format("acq section is not UTF-8"))?;
    let rows = acq_rows(acq_text)?;
    if dwi.dims() != mask.dims() {
        return Err(TractoError::format(
            "TRDS inconsistent: mask dims differ from dwi",
        ));
    }
    // Checked on the raw rows: the acq section is sized by the upload, not
    // by the dwi, so no Acquisition is built for rows the dwi cannot use.
    if dwi.nt() != rows.bvals.len() {
        return Err(TractoError::format(format!(
            "TRDS inconsistent: dwi has {} measurements, acq {}",
            dwi.nt(),
            rows.bvals.len()
        )));
    }
    rows.check_values()?;
    if let Some(pos) = dwi.as_slice().iter().position(|v| !v.is_finite()) {
        let c = dwi.dims().coords(pos / dwi.nt());
        return Err(TractoError::format(format!(
            "TRDS dwi section: non-finite value {} at voxel ({}, {}, {}), measurement {}",
            dwi.as_slice()[pos],
            c.i,
            c.j,
            c.k,
            pos % dwi.nt()
        )));
    }
    Ok((dwi, mask, Acquisition::new(rows.bvals, rows.grads)))
}

/// Build a runnable [`Dataset`] from loaded components. `name` labels the
/// spec (e.g. `upload:<hash>`); spacing defaults to 2 mm isotropic since
/// the container carries no geometry.
pub fn dataset_from_parts(
    name: impl Into<String>,
    dwi: Volume4<f32>,
    mask: Mask,
    acq: Acquisition,
) -> TractoResult<Dataset> {
    if dwi.dims() != mask.dims() {
        return Err(TractoError::format(
            "loaded dataset: mask dims differ from dwi",
        ));
    }
    if dwi.nt() != acq.len() {
        return Err(TractoError::format(format!(
            "loaded dataset: dwi has {} measurements, acq {}",
            dwi.nt(),
            acq.len()
        )));
    }
    if mask.count() == 0 {
        return Err(TractoError::format(
            "loaded dataset: white-matter mask is empty",
        ));
    }
    let dims = dwi.dims();
    let n_b0 = (0..acq.len())
        .filter(|&i| acq.bval(i) <= B0_THRESHOLD)
        .count();
    let bval = (0..acq.len()).map(|i| acq.bval(i)).fold(0.0f64, f64::max);
    let truth = GroundTruthField::from_mask(dims, &mask, PLACEHOLDER_FRACTION);
    Ok(Dataset {
        spec: DatasetSpec {
            name: name.into(),
            dims,
            spacing_mm: 2.0,
            n_dirs: acq.len() - n_b0,
            n_b0,
            bval,
            snr: None,
            seed: 0,
        },
        grid: VoxelGrid::isotropic(dims, 2.0),
        acq,
        dwi,
        truth,
        wm_mask: mask,
        tissue: TissueParams::default(),
    })
}

/// Decode a TRDS container straight into a runnable [`Dataset`].
pub fn dataset_from_trds(name: impl Into<String>, bytes: &[u8]) -> TractoResult<Dataset> {
    let (dwi, mask, acq) = decode_trds(bytes)?;
    dataset_from_parts(name, dwi, mask, acq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;
    use tracto_trace::ErrorKind;
    use tracto_volume::{Dim3, Ijk};

    #[test]
    fn trds_round_trips_a_phantom_bit_for_bit() {
        let ds = datasets::single_bundle(Dim3::new(6, 5, 4), Some(25.0), 3);
        let blob = encode_trds(&ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        let loaded = dataset_from_trds("upload:test", &blob).unwrap();
        assert_eq!(loaded.dwi, ds.dwi, "DWI must survive bit-for-bit");
        assert_eq!(loaded.wm_mask.count(), ds.wm_mask.count());
        assert_eq!(loaded.acq.len(), ds.acq.len());
        for i in 0..loaded.acq.len() {
            assert!((loaded.acq.bval(i) - ds.acq.bval(i)).abs() < 1e-12);
            assert!((loaded.acq.grad(i) - ds.acq.grad(i)).norm() < 1e-12);
        }
        // Re-encoding the loaded components reproduces the same blob, so
        // the content hash is stable across a round trip.
        let again = encode_trds(&loaded.dwi, &loaded.wm_mask, &loaded.acq).unwrap();
        assert_eq!(blob, again);
        // Placeholder truth reproduces the mask for seeding.
        assert_eq!(
            loaded.truth.fiber_mask().count(),
            loaded.wm_mask.count(),
            "fiber mask must equal the uploaded wm mask"
        );
        assert_eq!(loaded.spec.n_dirs + loaded.spec.n_b0, loaded.acq.len());
    }

    #[test]
    fn hostile_containers_are_typed_format_errors() {
        let ds = datasets::single_bundle(Dim3::new(5, 4, 4), None, 2);
        let blob = encode_trds(&ds.dwi, &ds.wm_mask, &ds.acq).unwrap();

        let err = decode_trds(b"garbage").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("magic"));

        let err = decode_trds(&blob[..blob.len() / 2]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("truncated"));

        let mut trailing = blob.clone();
        trailing.push(0);
        let err = decode_trds(&trailing).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("trailing"));

        // A section length announcing more than the blob holds.
        let mut lying = blob.clone();
        lying[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
        let err = decode_trds(&lying).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
    }

    #[test]
    fn overflowing_volume_headers_are_typed_format_errors() {
        let dims = Dim3::new(1, 1, 1);
        let mask = Mask::from_fn(dims, |_| true);
        let mut mask_bytes = Vec::new();
        write_volume3(&mut mask_bytes, &mask.as_volume().map(|_| 1.0f32)).unwrap();
        for extents in [[1 << 62 | 1, 1, 1], [1 << 22; 3]] {
            // A 48-byte dwi section (36-byte header, 3 samples) whose
            // header announces `extents` voxels.
            let mut dwi_bytes = Vec::new();
            write_volume4(&mut dwi_bytes, &Volume4::<f32>::zeros(dims, 3)).unwrap();
            for (at, n) in [8, 16, 24].into_iter().zip(extents) {
                dwi_bytes[at..at + 8].copy_from_slice(&u64::to_le_bytes(n));
            }
            let mut blob = TRDS_MAGIC.to_vec();
            push_section(&mut blob, &dwi_bytes);
            push_section(&mut blob, &mask_bytes);
            push_section(&mut blob, b"0 0 0 0\n0 0 0 0\n0 0 0 0\n");
            let err = decode_trds(&blob).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Format, "{extents:?}");
            assert!(err.to_string().contains("overflow"), "{err}");
        }
    }

    #[test]
    fn non_finite_dwi_samples_are_typed_format_errors() {
        let ds = datasets::single_bundle(Dim3::new(5, 4, 4), None, 2);
        let (voxel, t) = (ds.dwi.dims().index(Ijk::new(3, 1, 2)), 4);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut dwi = ds.dwi.clone();
            dwi.voxel_at_mut(voxel)[t] = bad;
            // A later bad sample too: the error names the first one.
            dwi.voxel_at_mut(voxel + 1)[0] = bad;
            let blob = encode_trds(&dwi, &ds.wm_mask, &ds.acq).unwrap();
            let err = decode_trds(&blob).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Format, "{bad}");
            let msg = err.to_string();
            assert!(msg.contains("non-finite"), "{msg}");
            assert!(msg.contains("voxel (3, 1, 2), measurement 4"), "{msg}");
            assert!(msg.contains(&bad.to_string()), "{msg}");
            assert_eq!(
                dataset_from_trds("upload:bad", &blob).unwrap_err().kind(),
                ErrorKind::Format
            );
        }
        // Finite extremes are data, not corruption.
        let mut dwi = ds.dwi.clone();
        dwi.voxel_at_mut(voxel)[t] = f32::MAX;
        let blob = encode_trds(&dwi, &ds.wm_mask, &ds.acq).unwrap();
        assert!(decode_trds(&blob).is_ok());
    }

    #[test]
    fn oversized_acq_section_fails_format_quickly() {
        // A 1-voxel, 1-measurement dwi with 200 000 acq rows, each its own
        // b-value: the row-count check must refuse it before any per-row
        // work beyond parsing.
        let dims = Dim3::new(1, 1, 1);
        let dwi = Volume4::<f32>::zeros(dims, 1);
        let mask = Mask::from_fn(dims, |_| true);
        let mut dwi_bytes = Vec::new();
        write_volume4(&mut dwi_bytes, &dwi).unwrap();
        let mut mask_bytes = Vec::new();
        write_volume3(
            &mut mask_bytes,
            &mask.as_volume().map(|&b| if b { 1.0f32 } else { 0.0 }),
        )
        .unwrap();
        let rows = 200_000;
        let acq_text: String = (1..=rows).map(|b| format!("{b} 0 0 0\n")).collect();
        let mut blob = TRDS_MAGIC.to_vec();
        push_section(&mut blob, &dwi_bytes);
        push_section(&mut blob, &mask_bytes);
        push_section(&mut blob, acq_text.as_bytes());

        let t = std::time::Instant::now();
        let err = dataset_from_trds("upload:wide-acq", &blob).unwrap_err();
        let took = t.elapsed();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(
            err.to_string()
                .contains(&format!("dwi has 1 measurements, acq {rows}")),
            "{err}"
        );
        assert!(took.as_secs_f64() < 5.0, "refusal took {took:?}");
    }

    #[test]
    fn acq_text_round_trips_and_rejects_bad_rows() {
        let acq = Acquisition::new(
            vec![0.0, 1000.0],
            vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0)],
        );
        let text = acq_to_text(&acq);
        let back = acq_from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert!((back.bval(1) - 1000.0).abs() < 1e-12);

        assert_eq!(
            acq_from_text("1000 1 0").unwrap_err().kind(),
            ErrorKind::Format
        );
        assert_eq!(
            acq_from_text("# only comments\n").unwrap_err().kind(),
            ErrorKind::Format
        );
    }

    /// `blob` with its acq section (the container's last) replaced.
    fn with_acq_text(blob: &[u8], acq: &Acquisition, text: &str) -> Vec<u8> {
        let mut out = blob[..blob.len() - 8 - acq_to_text(acq).len()].to_vec();
        push_section(&mut out, text.as_bytes());
        out
    }

    #[test]
    fn absurd_protocol_rows_are_typed_format_errors() {
        let ds = datasets::single_bundle(Dim3::new(4, 3, 3), Some(20.0), 2);
        let blob = encode_trds(&ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        let good = acq_to_text(&ds.acq);
        assert!(decode_trds(&with_acq_text(&blob, &ds.acq, &good)).is_ok());
        let bad_line = 5;
        for (row, needle) in [
            ("nan 1 0 0", "non-finite value `NaN`"),
            ("inf 1 0 0", "non-finite value `inf`"),
            ("1000 nan 0 0", "non-finite value `NaN`"),
            ("1000 1 -inf 0", "non-finite value `-inf`"),
            ("1e300 1 0 0", "above the 100000 s/mm² ceiling"),
            ("100000.5 1 0 0", "above the 100000 s/mm² ceiling"),
            ("-1000 1 0 0", "negative b-value -1000"),
            ("1000 0 0 0", "b-value 1000 with no gradient direction"),
            ("1000 1e300 0 0", "b-value 1000 with no gradient direction"),
        ] {
            let text: String = good
                .lines()
                .enumerate()
                .map(|(i, l)| if i + 1 == bad_line { row } else { l })
                .map(|l| format!("{l}\n"))
                .collect();
            let err = decode_trds(&with_acq_text(&blob, &ds.acq, &text)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Format, "{row}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("acq line {bad_line}:")),
                "{row}: {msg}"
            );
            assert!(msg.contains(needle), "{row}: {msg}");
        }
        // The ceiling itself and b = 0 are measurements, and a b = 0 row
        // needs no gradient.
        assert!(acq_from_text("0 0 0 0\n100000 0 0 1\n").is_ok());
    }

    #[test]
    fn empty_mask_is_rejected() {
        let ds = datasets::single_bundle(Dim3::new(5, 4, 4), None, 2);
        let empty = Mask::from_fn(ds.dwi.dims(), |_| false);
        let err = dataset_from_parts("x", ds.dwi.clone(), empty, ds.acq.clone()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Format);
        assert!(err.to_string().contains("empty"));
    }
}
