//! A JPEG-style image-compression pipeline, the second multi-process
//! workload (the paper's methodology is application-agnostic; a second
//! process network exercises the tool chain on a different traffic and
//! compute profile: block-structured data, variable-length output).
//!
//! ```text
//! camera ──ch10──▶ transform ──ch11──▶ encoder ──ch12──▶ store
//!  (tiles)          (DCT+quant)         (zigzag+RLE)       (size+checksum)
//! ```
//!
//! Each message on `ch10`/`ch11` is one 8×8 block (64 words). The encoder
//! emits a word count followed by that many packed words per block.

use std::fmt::Write as _;

use tlm_core::library;
use tlm_pipeline::{DesignBuilder, Pipeline, PipelineError, PreparedDesign};
use tlm_platform::desc::Platform;

/// Channel ids of the pipeline (distinct from the MP3 network's 0..=5).
pub mod chan {
    /// camera → transform (raw blocks)
    pub const RAW: u32 = 10;
    /// transform → encoder (quantized blocks)
    pub const QUANT: u32 = 11;
    /// encoder → store (count + packed words)
    pub const PACKED: u32 = 12;
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageParams {
    /// Seed of the synthetic sensor noise.
    pub seed: i32,
    /// Number of 8×8 blocks to compress.
    pub blocks: u32,
}

impl ImageParams {
    /// A small default workload.
    pub fn small() -> ImageParams {
        ImageParams { seed: 0x0123_4567, blocks: 24 }
    }
}

fn dct_table() -> String {
    let mut out = String::new();
    for u in 0..8usize {
        for x in 0..8usize {
            if u > 0 || x > 0 {
                out.push_str(", ");
            }
            let angle = std::f64::consts::PI / 8.0 * (x as f64 + 0.5) * u as f64;
            let _ = write!(out, "{}", (1024.0 * angle.cos()).round() as i64);
        }
    }
    out
}

fn quant_table() -> String {
    // A luminance-like quantisation matrix: coarser at high frequencies.
    let mut out = String::new();
    for v in 0..8usize {
        for u in 0..8usize {
            if u > 0 || v > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", 8 + 2 * (u + v) as i64);
        }
    }
    out
}

fn zigzag_table() -> String {
    // The standard 8×8 zigzag scan order.
    let mut order = [0usize; 64];
    let (mut r, mut c) = (0isize, 0isize);
    let mut up = true;
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = (r * 8 + c) as usize;
        let _ = i;
        if up {
            if c == 7 {
                r += 1;
                up = false;
            } else if r == 0 {
                c += 1;
                up = false;
            } else {
                r -= 1;
                c += 1;
            }
        } else if r == 7 {
            c += 1;
            up = true;
        } else if c == 0 {
            r += 1;
            up = true;
        } else {
            r += 1;
            c -= 1;
        }
    }
    let mut out = String::new();
    for (i, v) in order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out
}

/// MiniC source of the camera/source process. Entry: `main(seed, blocks)`.
pub fn camera_source() -> String {
    format!(
        r#"
// Synthetic sensor: smooth gradient + noise, per 8x8 tile, with a
// white-balance pass before shipping.
int tile[64];
void main(int seed, int blocks) {{
    int state = seed;
    for (int b = 0; b < blocks; b++) {{
        int base = (b * 37) & 127;
        for (int y = 0; y < 8; y++) {{
            for (int x = 0; x < 8; x++) {{
                state = state * 1103515245 + 12345;
                int noise = ((state >> 18) & 31) - 16;
                tile[y * 8 + x] = base + y * 6 + x * 3 + noise - 128;
            }}
        }}
        // White balance: normalize tile mean toward zero.
        int mean = 0;
        for (int i = 0; i < 64; i++) {{ mean += tile[i]; }}
        mean = mean >> 6;
        for (int i = 0; i < 64; i++) {{
            ch_send({raw}, tile[i] - mean);
        }}
    }}
}}
"#,
        raw = chan::RAW,
    )
}

/// MiniC source of the DCT + quantisation process. Entry: `main(blocks)`.
pub fn transform_source() -> String {
    format!(
        r#"
// 2-D 8x8 DCT (rows then columns, Q10 fixed point) plus quantisation.
int ct[64] = {{{ct}}};
int qt[64] = {{{qt}}};
int blk[64];
int tmp[64];
void main(int blocks) {{
    for (int b = 0; b < blocks; b++) {{
        for (int i = 0; i < 64; i++) {{ blk[i] = ch_recv({raw}); }}
        for (int y = 0; y < 8; y++) {{
            for (int u = 0; u < 8; u++) {{
                int acc = 0;
                for (int x = 0; x < 8; x++) {{
                    acc += blk[y * 8 + x] * ct[u * 8 + x];
                }}
                tmp[y * 8 + u] = acc >> 10;
            }}
        }}
        for (int u = 0; u < 8; u++) {{
            for (int v = 0; v < 8; v++) {{
                int acc = 0;
                for (int y = 0; y < 8; y++) {{
                    acc += tmp[y * 8 + u] * ct[v * 8 + y];
                }}
                int coeff = acc >> 10;
                ch_send({quant}, coeff / qt[v * 8 + u]);
            }}
        }}
    }}
}}
"#,
        ct = dct_table(),
        qt = quant_table(),
        raw = chan::RAW,
        quant = chan::QUANT,
    )
}

/// MiniC source of the zigzag + run-length encoder. Entry: `main(blocks)`.
pub fn encoder_source() -> String {
    format!(
        r#"
// Zigzag scan, then (run, level) pairs packed as run*4096 + (level & 4095),
// preceded by the word count for the block.
int zz[64] = {{{zz}}};
int coeffs[64];
int packed[66];
void main(int blocks) {{
    for (int b = 0; b < blocks; b++) {{
        for (int i = 0; i < 64; i++) {{ coeffs[i] = ch_recv({quant}); }}
        int n = 0;
        int run = 0;
        for (int i = 0; i < 64; i++) {{
            int level = coeffs[zz[i]];
            if (level == 0) {{
                run++;
            }} else {{
                packed[n] = run * 4096 + (level & 4095);
                n++;
                run = 0;
            }}
        }}
        ch_send({packed}, n);
        for (int i = 0; i < n; i++) {{ ch_send({packed}, packed[i]); }}
    }}
}}
"#,
        zz = zigzag_table(),
        quant = chan::QUANT,
        packed = chan::PACKED,
    )
}

/// MiniC source of the store/sink process. Entry: `main(blocks)`.
pub fn store_source() -> String {
    format!(
        r#"
// Accumulate compressed size and a checksum of the packed stream.
void main(int blocks) {{
    int words = 0;
    int checksum = 0;
    for (int b = 0; b < blocks; b++) {{
        int n = ch_recv({packed});
        words += n;
        for (int i = 0; i < n; i++) {{
            int w = ch_recv({packed});
            checksum = (checksum ^ w) + ((checksum << 1) & 0xffff);
        }}
    }}
    out(words);
    out(checksum);
}}
"#,
        packed = chan::PACKED,
    )
}

/// Builds the image pipeline as a pipeline artifact. With `accelerated`
/// set, the DCT transform runs on a custom-HW PE (the paper's Fig. 4
/// scenario); the other processes share the CPU. Sources are lowered
/// through `pipeline`'s shared front-end (the scalar cleanups run, so the
/// op mix matches compiled code).
///
/// # Errors
///
/// Propagates [`PipelineError`] (should not occur for the built-in
/// sources).
pub fn image_design(
    pipeline: &Pipeline,
    accelerated: bool,
    params: ImageParams,
    icache_bytes: u32,
    dcache_bytes: u32,
) -> Result<PreparedDesign, PipelineError> {
    let mut b = DesignBuilder::new(pipeline, if accelerated { "image-hw" } else { "image-sw" });
    let cpu = b.add_pe("cpu", library::microblaze_like(icache_bytes, dcache_bytes));
    let transform_pe =
        if accelerated { b.add_pe("dct_hw", library::custom_hw("dct_hw", 2, 2)) } else { cpu };
    let blocks = i64::from(params.blocks);
    b.add_process("camera", &camera_source(), "main", &[i64::from(params.seed), blocks], cpu)?;
    b.add_process("transform", &transform_source(), "main", &[blocks], transform_pe)?;
    b.add_process("encoder", &encoder_source(), "main", &[blocks], cpu)?;
    b.add_process("store", &store_source(), "main", &[blocks], cpu)?;
    b.build()
}

/// [`image_design`] on the process-wide pipeline, returning the bare
/// platform.
///
/// # Errors
///
/// Same as [`image_design`].
pub fn build_image_platform(
    accelerated: bool,
    params: ImageParams,
    icache_bytes: u32,
    dcache_bytes: u32,
) -> Result<Platform, PipelineError> {
    Ok(image_design(Pipeline::global(), accelerated, params, icache_bytes, dcache_bytes)?.platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig};

    #[test]
    fn sources_parse_and_lower() {
        for (name, src) in [
            ("camera", camera_source()),
            ("transform", transform_source()),
            ("encoder", encoder_source()),
            ("store", store_source()),
        ] {
            Pipeline::global().frontend(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn pipeline_compresses_something() {
        let p =
            build_image_platform(false, ImageParams::small(), 8 << 10, 4 << 10).expect("builds");
        let r = run_annotated(&p, None, &TlmConfig::default());
        assert!(r.all_finished());
        let outs = &r.outputs["store"];
        assert_eq!(outs.len(), 2);
        let words = outs[0];
        // Compression: fewer than 64 words per block, more than zero.
        let blocks = i64::from(ImageParams::small().blocks);
        assert!(words > 0 && words < blocks * 64, "compressed to {words} words");
    }

    #[test]
    fn acceleration_preserves_output_and_saves_time() {
        let params = ImageParams::small();
        let sw = build_image_platform(false, params, 8 << 10, 4 << 10).expect("builds");
        let hw = build_image_platform(true, params, 8 << 10, 4 << 10).expect("builds");
        let timed = |p| {
            let annotated = annotate_platform(p).expect("annotates");
            run_annotated(p, Some(&annotated), &TlmConfig::default())
        };
        let (rs, rh) = (timed(&sw), timed(&hw));
        assert_eq!(rs.outputs["store"], rh.outputs["store"]);
        assert!(rh.end_time < rs.end_time, "hw {} vs sw {}", rh.end_time, rs.end_time);
    }

    #[test]
    fn zigzag_table_is_a_permutation() {
        let text = zigzag_table();
        let mut seen = [false; 64];
        for tok in text.split(", ") {
            let v: usize = tok.parse().expect("number");
            assert!(!seen[v], "duplicate {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
