//! The MP3-style decoder process network, in MiniC.
//!
//! Substitution note (see DESIGN.md): the paper used a real MP3 reference
//! decoder; this is a synthetic stand-in with the same computational
//! skeleton — per granule and channel, 576 spectral values are produced by
//! a pseudo-Huffman/dequantisation front end (seeded LCG plus per-band
//! scalefactor processing and mid/side stereo), transformed by a windowed
//! 18→36 IMDCT with overlap-add per sub-band, and rendered by a polyphase
//! `FilterCore` (64×32 matrixing into a 1024-entry V FIFO plus 16-tap
//! windowing per PCM sample). All arithmetic is 32-bit fixed point.
//!
//! Channel ids: `frontend → imdct_l` (0), `frontend → imdct_r` (1),
//! `imdct_l → filter_l` (2), `imdct_r → filter_r` (3),
//! `filter_l → sink` (4), `filter_r → sink` (5).

use std::fmt::Write as _;

/// Granules per frame.
pub const GRANULES_PER_FRAME: usize = 2;

/// Channel ids of the process network.
pub mod chan {
    /// frontend → imdct_l
    pub const SPEC_L: u32 = 0;
    /// frontend → imdct_r
    pub const SPEC_R: u32 = 1;
    /// imdct_l → filter_l
    pub const SUB_L: u32 = 2;
    /// imdct_r → filter_r
    pub const SUB_R: u32 = 3;
    /// filter_l → sink
    pub const PCM_L: u32 = 4;
    /// filter_r → sink
    pub const PCM_R: u32 = 5;
}

fn table(values: &[i64]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out
}

/// The 36×18 windowed IMDCT coefficient table (Q12).
pub fn imdct_table() -> Vec<i64> {
    let mut t = Vec::with_capacity(36 * 18);
    for n in 0..36usize {
        let window = (std::f64::consts::PI / 36.0 * (n as f64 + 0.5)).sin();
        for k in 0..18usize {
            let angle = std::f64::consts::PI / 72.0
                * (2.0 * n as f64 + 1.0 + 18.0)
                * (2.0 * k as f64 + 1.0);
            t.push((4096.0 * angle.cos() * window).round() as i64);
        }
    }
    t
}

/// The 64×32 synthesis matrixing table (Q12).
pub fn matrix_table() -> Vec<i64> {
    let mut t = Vec::with_capacity(64 * 32);
    for i in 0..64usize {
        for k in 0..32usize {
            let angle = std::f64::consts::PI / 64.0 * ((16 + i) as f64) * (2.0 * k as f64 + 1.0);
            t.push((4096.0 * angle.cos()).round() as i64);
        }
    }
    t
}

/// The 512-tap synthesis window (Q10, raised-cosine shape).
pub fn window_table() -> Vec<i64> {
    (0..512usize)
        .map(|j| {
            let x = std::f64::consts::PI * (j as f64 + 0.5) / 512.0;
            (1024.0 * x.sin() * x.sin()).round() as i64
        })
        .collect()
}

/// MiniC source of the front end (pseudo-Huffman decode, dequantisation,
/// scalefactors, mid/side stereo). Entry: `main(seed, nframes)`.
pub fn frontend_source() -> String {
    format!(
        r#"
// MP3-style front end: bitstream unpack + dequantize + stereo.
int xl[576];
int xr[576];
int gains[22];

int next(int state) {{
    return state * 1103515245 + 12345;
}}

void main(int seed, int nframes) {{
    int state = seed;
    for (int f = 0; f < nframes; f++) {{
        for (int g = 0; g < 2; g++) {{
            // "Huffman decode" + requantize both channels.
            for (int i = 0; i < 576; i++) {{
                int band = i >> 5;
                state = next(state);
                int v = ((state >> 16) & 4095) - 2048;
                xl[i] = (v * (18 - band)) >> 4;
                state = next(state);
                v = ((state >> 16) & 4095) - 2048;
                xr[i] = (v * (18 - band)) >> 4;
            }}
            // Scalefactor application over 22 bands.
            for (int b = 0; b < 22; b++) {{
                state = next(state);
                gains[b] = 2048 + ((state >> 20) & 2047);
            }}
            for (int i = 0; i < 576; i++) {{
                int b = i / 27;
                if (b > 21) {{ b = 21; }}
                xl[i] = (xl[i] * gains[b]) >> 12;
                xr[i] = (xr[i] * gains[b]) >> 12;
            }}
            // Mid/side stereo on even frames.
            if ((f & 1) == 0) {{
                for (int i = 0; i < 576; i++) {{
                    int m = xl[i];
                    int s = xr[i];
                    xl[i] = (m + s) >> 1;
                    xr[i] = (m - s) >> 1;
                }}
            }}
            for (int i = 0; i < 576; i++) {{ ch_send({spec_l}, xl[i]); }}
            for (int i = 0; i < 576; i++) {{ ch_send({spec_r}, xr[i]); }}
        }}
    }}
}}
"#,
        spec_l = chan::SPEC_L,
        spec_r = chan::SPEC_R,
    )
}

/// MiniC source of one IMDCT process. Entry: `main(ngranules)`.
///
/// `ch_in`/`ch_out` select the left or right instance.
pub fn imdct_source(ch_in: u32, ch_out: u32) -> String {
    format!(
        r#"
// Windowed 18-to-36 IMDCT with overlap-add, per sub-band.
int xin[576];
int prev[576];
int cosw[648] = {{{cosw}}};

void granule() {{
    for (int sb = 0; sb < 32; sb++) {{
        int base = sb * 18;
        for (int n = 0; n < 36; n++) {{
            int acc = 0;
            for (int k = 0; k < 18; k++) {{
                acc += xin[base + k] * cosw[n * 18 + k];
            }}
            acc = acc >> 12;
            if (n < 18) {{
                ch_send({ch_out}, acc + prev[base + n]);
            }} else {{
                prev[base + n - 18] = acc;
            }}
        }}
    }}
}}

void main(int ngranules) {{
    for (int g = 0; g < ngranules; g++) {{
        for (int i = 0; i < 576; i++) {{ xin[i] = ch_recv({ch_in}); }}
        granule();
    }}
}}
"#,
        cosw = table(&imdct_table()),
    )
}

/// MiniC source of one FilterCore (polyphase synthesis) process.
/// Entry: `main(ngranules)`.
pub fn filter_source(ch_in: u32, ch_out: u32) -> String {
    format!(
        r#"
// Polyphase synthesis filter bank: 64x32 matrixing into a 1024-entry
// V FIFO, then 16-tap windowing per PCM sample.
int s[576];
int v[1024];
int voff;
int nmat[2048] = {{{nmat}}};
int dwin[512] = {{{dwin}}};

void synth(int t) {{
    voff = (voff - 64) & 1023;
    for (int i = 0; i < 64; i++) {{
        int acc = 0;
        for (int k = 0; k < 32; k++) {{
            acc += nmat[i * 32 + k] * s[k * 18 + t];
        }}
        v[(voff + i) & 1023] = acc >> 12;
    }}
    for (int j = 0; j < 32; j++) {{
        int acc = 0;
        for (int b = 0; b < 16; b++) {{
            acc += dwin[j + (b << 5)] * v[(voff + b * 96 + j) & 1023];
        }}
        ch_send({ch_out}, acc >> 10);
    }}
}}

void main(int ngranules) {{
    voff = 0;
    for (int g = 0; g < ngranules; g++) {{
        for (int i = 0; i < 576; i++) {{ s[i] = ch_recv({ch_in}); }}
        for (int t = 0; t < 18; t++) {{ synth(t); }}
    }}
}}
"#,
        nmat = table(&matrix_table()),
        dwin = table(&window_table()),
    )
}

/// MiniC source of the sink (mix, per-granule energy, running checksum).
/// Entry: `main(ngranules)`.
pub fn sink_source() -> String {
    format!(
        r#"
// PCM sink: interleave L/R, emit per-granule energy and final checksum.
void main(int ngranules) {{
    int checksum = 0;
    for (int g = 0; g < ngranules; g++) {{
        int energy = 0;
        for (int i = 0; i < 576; i++) {{
            int l = ch_recv({pcm_l});
            int r = ch_recv({pcm_r});
            int mono = (l + r) >> 1;
            checksum = (checksum ^ mono) + (mono & 255);
            if (mono < 0) {{
                energy += -mono;
            }} else {{
                energy += mono;
            }}
        }}
        out(energy >> 8);
    }}
    out(checksum);
}}
"#,
        pcm_l = chan::PCM_L,
        pcm_r = chan::PCM_R,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_parse_and_lower() {
        for (name, src) in [
            ("frontend", frontend_source()),
            ("imdct", imdct_source(chan::SPEC_L, chan::SUB_L)),
            ("filter", filter_source(chan::SUB_L, chan::PCM_L)),
            ("sink", sink_source()),
        ] {
            let artifact = tlm_pipeline::Pipeline::global()
                .frontend_with(&src, false)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            artifact.module().validate().unwrap_or_else(|e| panic!("{name} invalid: {e}"));
        }
    }

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(imdct_table().len(), 648);
        assert_eq!(matrix_table().len(), 2048);
        assert_eq!(window_table().len(), 512);
        // Q12 coefficients stay in range.
        assert!(imdct_table().iter().all(|&v| v.abs() <= 4096));
        assert!(matrix_table().iter().all(|&v| v.abs() <= 4096));
        assert!(window_table().iter().all(|&v| (0..=1024).contains(&v)));
    }

    #[test]
    fn imdct_window_is_nontrivial() {
        let t = imdct_table();
        let nonzero = t.iter().filter(|&&v| v != 0).count();
        assert!(nonzero > 500, "table mostly populated, got {nonzero}");
        // Not constant.
        assert!(t.iter().any(|&v| v > 1000) && t.iter().any(|&v| v < -1000));
    }
}
