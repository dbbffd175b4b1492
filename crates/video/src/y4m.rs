//! YUV4MPEG2 (Y4M) file I/O — the interchange format every real encoder
//! toolchain speaks, so clips can come from (and go back to) actual video
//! files instead of the synthesizer.
//!
//! Supported: progressive 4:2:0 (`C420`, `C420jpeg`, `C420mpeg2`,
//! `C420paldv` — all stored identically at this layer), any size/rate.

use crate::error::VideoError;
use crate::frame::{Clip, Frame};
use std::io::{BufRead, Read, Write};

/// Writes `clip` as a Y4M stream.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_y4m<W: Write>(clip: &Clip, mut out: W) -> std::io::Result<()> {
    let (w, h) = clip.dimensions();
    // Rational frame rate: round to a denominator of 1000 (covers the
    // NTSC-ish rates vbench uses).
    let num = (clip.fps() * 1000.0).round() as u64;
    writeln!(out, "YUV4MPEG2 W{w} H{h} F{num}:1000 Ip A1:1 C420jpeg")?;
    for frame in clip.frames() {
        writeln!(out, "FRAME")?;
        for plane in [frame.luma(), frame.cb(), frame.cr()] {
            for y in 0..plane.height() {
                out.write_all(plane.row(y))?;
            }
        }
    }
    Ok(())
}

/// Reads a Y4M stream into a [`Clip`].
///
/// Memory follows the input, not the header: a frame's samples are read
/// before its planes are allocated, so a header claiming a huge geometry
/// fails at its first short frame instead of allocating for it.
///
/// # Errors
///
/// Returns [`VideoError::GeometryMismatch`] for malformed headers,
/// unsupported chroma subsampling, or truncated frame data, and
/// [`VideoError::InvalidDimensions`] for a geometry whose frame size
/// overflows.
pub fn read_y4m<R: BufRead>(mut input: R, name: &str) -> Result<Clip, VideoError> {
    let mut header = String::new();
    input
        .read_line(&mut header)
        .map_err(|_| VideoError::GeometryMismatch { what: "y4m stream and reader" })?;
    let header = header.trim_end();
    if !header.starts_with("YUV4MPEG2") {
        return Err(VideoError::GeometryMismatch { what: "y4m signature and input" });
    }
    let mut width = 0usize;
    let mut height = 0usize;
    let mut fps = 30.0f64;
    for token in header.split_whitespace().skip(1) {
        let (tag, value) = token.split_at(1);
        match tag {
            "W" => width = value.parse().unwrap_or(0),
            "H" => height = value.parse().unwrap_or(0),
            "F" => {
                if let Some((n, d)) = value.split_once(':') {
                    let n: f64 = n.parse().unwrap_or(30.0);
                    let d: f64 = d.parse().unwrap_or(1.0);
                    if d > 0.0 {
                        fps = n / d;
                    }
                }
            }
            "C" if !value.starts_with("420") => {
                return Err(VideoError::GeometryMismatch {
                    what: "y4m chroma subsampling and 4:2:0 reader",
                });
            }
            _ => {}
        }
    }
    if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
        return Err(VideoError::InvalidDimensions {
            width,
            height,
            reason: "y4m header must carry even, nonzero W/H",
        });
    }

    let y_len = width.checked_mul(height).filter(|n| n.checked_mul(2).is_some()).ok_or(
        VideoError::InvalidDimensions { width, height, reason: "y4m frame size overflows" },
    )?;
    let c_len = (width / 2) * (height / 2);
    let frame_len = y_len + 2 * c_len;
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    loop {
        let mut marker = String::new();
        let n = input
            .read_line(&mut marker)
            .map_err(|_| VideoError::GeometryMismatch { what: "y4m frame marker and reader" })?;
        if n == 0 {
            break; // clean EOF
        }
        if !marker.trim_end().starts_with("FRAME") {
            return Err(VideoError::GeometryMismatch { what: "y4m frame marker and input" });
        }
        // `take` + `read_to_end` grows `buf` with the bytes that arrive,
        // never to the size the header claims.
        buf.clear();
        input
            .by_ref()
            .take(frame_len as u64)
            .read_to_end(&mut buf)
            .map_err(|_| VideoError::GeometryMismatch { what: "y4m frame data and reader" })?;
        if buf.len() < frame_len {
            return Err(VideoError::GeometryMismatch { what: "y4m frame data and size" });
        }
        let mut frame = Frame::new(width, height)?;
        let mut rest = buf.as_slice();
        for (plane_idx, len) in [(0usize, y_len), (1, c_len), (2, c_len)] {
            let (dst, tail) = rest.split_at(len);
            rest = tail;
            let plane = match plane_idx {
                0 => frame.luma_mut(),
                1 => frame.cb_mut(),
                _ => frame.cr_mut(),
            };
            let pw = plane.width();
            for y in 0..plane.height() {
                plane.row_mut(y).copy_from_slice(&dst[y * pw..(y + 1) * pw]);
            }
        }
        frames.push(frame);
    }
    Clip::from_frames(name, frames, fps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench::{self, FidelityConfig};

    #[test]
    fn roundtrip_preserves_every_sample() {
        let clip = vbench::clip("cat").unwrap().synthesize(&FidelityConfig::smoke());
        let mut bytes = Vec::new();
        write_y4m(&clip, &mut bytes).unwrap();
        let back = read_y4m(std::io::Cursor::new(&bytes), "cat").unwrap();
        assert_eq!(back.frames().len(), clip.frames().len());
        assert!((back.fps() - clip.fps()).abs() < 1e-9);
        for (a, b) in clip.frames().iter().zip(back.frames()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn header_is_standard() {
        let clip = vbench::clip("desktop").unwrap().synthesize(&FidelityConfig::smoke());
        let mut bytes = Vec::new();
        write_y4m(&clip, &mut bytes).unwrap();
        let header = String::from_utf8_lossy(&bytes[..60]);
        assert!(header.starts_with("YUV4MPEG2 W"));
        assert!(header.contains(" C420jpeg"));
    }

    #[test]
    fn rejects_garbage_and_wrong_chroma() {
        assert!(read_y4m(std::io::Cursor::new(b"not y4m at all\n".to_vec()), "x").is_err());
        let bad = b"YUV4MPEG2 W16 H16 F30:1 Ip A1:1 C444\n".to_vec();
        assert!(read_y4m(std::io::Cursor::new(bad), "x").is_err());
    }

    #[test]
    fn rejects_truncated_frames() {
        let clip = vbench::clip("cat").unwrap().synthesize(&FidelityConfig::smoke());
        let mut bytes = Vec::new();
        write_y4m(&clip, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 7);
        assert!(read_y4m(std::io::Cursor::new(&bytes), "cat").is_err());
    }

    #[test]
    fn huge_header_geometry_is_an_error_not_an_allocation() {
        // 42 bytes claiming 10^12-sample frames: the reader must fail on
        // the missing frame data instead of sizing a buffer for it.
        let header = b"YUV4MPEG2 W1000000 H1000000 F30:1 C420jpeg";
        assert_eq!(header.len(), 42);
        let with_frame = [&header[..], b"\nFRAME\n\x80\x80"].concat();
        for input in [&header[..], &with_frame] {
            assert!(read_y4m(std::io::Cursor::new(input), "x").is_err());
        }
        let overflow = format!("YUV4MPEG2 W{0} H{0} C420jpeg\nFRAME\n", usize::MAX - 1);
        assert!(matches!(
            read_y4m(std::io::Cursor::new(overflow), "x"),
            Err(VideoError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn zero_frames_is_rejected_by_clip_constructor() {
        let bad = b"YUV4MPEG2 W16 H16 F30:1 Ip A1:1 C420jpeg\n".to_vec();
        assert!(read_y4m(std::io::Cursor::new(bad), "x").is_err());
    }
}
