//! Reference numbers transcribed from the paper, for side-by-side
//! comparison in the harness output.

/// Table 1 — data set details of the real Barton dump.
pub mod table1 {
    /// Total triples.
    pub const TOTAL_TRIPLES: u64 = 50_255_599;
    /// Distinct properties.
    pub const DISTINCT_PROPERTIES: u64 = 222;
    /// Distinct subjects.
    pub const DISTINCT_SUBJECTS: u64 = 12_304_739;
    /// Distinct objects.
    pub const DISTINCT_OBJECTS: u64 = 15_817_921;
    /// Subjects also appearing as objects.
    pub const SUBJECT_OBJECT_OVERLAP: u64 = 9_654_007;
    /// Strings in the dictionary.
    pub const DICTIONARY_STRINGS: u64 = 18_468_875;
    /// Data set size in megabytes.
    pub const DATASET_MB: u64 = 1253;
    /// Most frequent property (`#type`) triple count.
    pub const TOP_PROPERTY: u64 = 12_327_859;
    /// Most frequent object (`#Date`) triple count.
    pub const TOP_OBJECT: u64 = 4_035_522;
    /// Most frequent subject triple count.
    pub const TOP_SUBJECT: u64 = 3_794;
}

/// Table 4 — repetition of the C-Store experiment (q1–q7, seconds).
/// Rows: (label, [q1..q7], geometric mean).
pub const TABLE4: [(&str, [f64; 7], f64); 9] = [
    (
        "A cold real",
        [1.01, 2.21, 10.33, 2.47, 18.46, 11.42, 1.94],
        4.2,
    ),
    (
        "A cold user",
        [0.47, 1.14, 3.06, 1.37, 9.28, 8.91, 0.34],
        1.8,
    ),
    (
        "A hot real",
        [0.59, 1.33, 3.63, 1.62, 10.42, 10.36, 0.83],
        2.3,
    ),
    (
        "A hot user",
        [0.49, 1.14, 3.01, 1.37, 9.13, 8.91, 0.30],
        1.7,
    ),
    (
        "B cold real",
        [0.79, 1.79, 10.13, 2.80, 21.13, 12.71, 1.09],
        3.8,
    ),
    (
        "B cold user",
        [0.49, 1.18, 3.44, 1.30, 11.64, 10.56, 0.37],
        1.9,
    ),
    (
        "B hot real",
        [0.59, 1.35, 4.08, 1.52, 12.95, 12.04, 0.77],
        2.4,
    ),
    (
        "B hot user",
        [0.49, 1.17, 3.45, 1.28, 11.67, 10.49, 0.34],
        1.9,
    ),
    (
        "[1] (orig.)",
        [0.66, 1.64, 9.28, 2.24, 15.88, 10.81, 1.44],
        3.4,
    ),
];

/// Table 5 — data relevant to a query on C-Store: (query, MB read, rows).
pub const TABLE5: [(&str, f64, u64); 7] = [
    ("q1", 100.0, 30),
    ("q2", 135.0, 9),
    ("q3", 175.0, 3336),
    ("q4", 142.0, 297),
    ("q5", 250.0, 12916),
    ("q6", 220.0, 14),
    ("q7", 135.0, 74866),
];

/// One configuration row of Tables 6/7: real-time seconds for the 12
/// queries (q2*/q3*/q4*/q6* interleaved as in the paper), then G, G*, G*/G.
/// `None` marks cells C-Store cannot run.
pub struct PaperRow {
    /// Configuration label.
    pub label: &'static str,
    /// Real seconds for q1, q2, q2*, q3, q3*, q4, q4*, q5, q6, q6*, q7, q8.
    pub real: [Option<f64>; 12],
    /// Geometric mean over q1–q7.
    pub g: f64,
    /// Geometric mean over all 12 queries (None for C-Store).
    pub g_star: Option<f64>,
}

const fn s(x: f64) -> Option<f64> {
    Some(x)
}

/// Table 6 — cold runs (real time).
pub const TABLE6: [PaperRow; 7] = [
    PaperRow {
        label: "DBX triple/SPO",
        real: [
            s(12.59),
            s(53.65),
            s(108.76),
            s(50.35),
            s(144.81),
            s(16.08),
            s(13.82),
            s(45.06),
            s(127.45),
            s(170.99),
            s(9.62),
            s(19.45),
        ],
        g: 31.4,
        g_star: Some(40.8),
    },
    PaperRow {
        label: "DBX triple/PSO",
        real: [
            s(2.35),
            s(34.08),
            s(37.93),
            s(39.73),
            s(72.72),
            s(10.64),
            s(9.84),
            s(14.01),
            s(54.66),
            s(60.66),
            s(8.62),
            s(19.61),
        ],
        g: 15.5,
        g_star: Some(20.9),
    },
    PaperRow {
        label: "DBX vert/SO",
        real: [
            s(1.92),
            s(44.29),
            s(99.46),
            s(49.88),
            s(121.08),
            s(10.11),
            s(84.03),
            s(6.32),
            s(51.23),
            s(173.49),
            s(2.70),
            s(39.75),
        ],
        g: 12.0,
        g_star: Some(28.2),
    },
    PaperRow {
        label: "MonetDB triple/SPO",
        real: [
            s(3.06),
            s(12.16),
            s(12.30),
            s(14.04),
            s(27.32),
            s(11.10),
            s(11.00),
            s(32.86),
            s(25.79),
            s(26.08),
            s(29.03),
            s(6.65),
        ],
        g: 14.6,
        g_star: Some(14.5),
    },
    PaperRow {
        label: "MonetDB triple/PSO",
        real: [
            s(2.66),
            s(6.48),
            s(6.62),
            s(8.59),
            s(16.92),
            s(14.85),
            s(20.67),
            s(4.11),
            s(9.60),
            s(8.96),
            s(3.46),
            s(8.43),
        ],
        g: 6.0,
        g_star: Some(7.8),
    },
    PaperRow {
        label: "MonetDB vert/SO",
        real: [
            s(1.20),
            s(3.50),
            s(9.16),
            s(5.22),
            s(19.34),
            s(2.28),
            s(6.22),
            s(2.00),
            s(7.20),
            s(16.58),
            s(0.61),
            s(7.99),
        ],
        g: 2.3,
        g_star: Some(4.4),
    },
    PaperRow {
        label: "C-Store vert/SO",
        real: [
            s(0.79),
            s(1.79),
            None,
            s(10.13),
            None,
            s(2.80),
            None,
            s(21.13),
            s(12.71),
            None,
            s(1.09),
            None,
        ],
        g: 3.8,
        g_star: None,
    },
];

/// Table 7 — hot runs (real time).
pub const TABLE7: [PaperRow; 7] = [
    PaperRow {
        label: "DBX triple/SPO",
        real: [
            s(4.29),
            s(42.61),
            s(93.11),
            s(34.86),
            s(97.92),
            s(8.02),
            s(6.12),
            s(11.70),
            s(89.11),
            s(142.10),
            s(1.34),
            s(14.47),
        ],
        g: 13.2,
        g_star: Some(21.1),
    },
    PaperRow {
        label: "DBX triple/PSO",
        real: [
            s(1.72),
            s(40.18),
            s(38.35),
            s(45.65),
            s(67.32),
            s(3.22),
            s(2.49),
            s(10.61),
            s(57.52),
            s(63.04),
            s(1.42),
            s(12.14),
        ],
        g: 9.8,
        g_star: Some(13.6),
    },
    PaperRow {
        label: "DBX vert/SO",
        real: [
            s(1.55),
            s(39.62),
            s(74.85),
            s(45.17),
            s(94.59),
            s(6.12),
            s(14.18),
            s(5.69),
            s(45.57),
            s(154.81),
            s(1.25),
            s(11.55),
        ],
        g: 9.1,
        g_star: Some(17.7),
    },
    PaperRow {
        label: "MonetDB triple/SPO",
        real: [
            s(1.53),
            s(3.50),
            s(3.63),
            s(5.28),
            s(17.54),
            s(1.68),
            s(1.98),
            s(2.77),
            s(8.37),
            s(7.33),
            s(1.82),
            s(4.76),
        ],
        g: 2.9,
        g_star: Some(3.7),
    },
    PaperRow {
        label: "MonetDB triple/PSO",
        real: [
            s(0.78),
            s(2.80),
            s(2.83),
            s(4.36),
            s(12.59),
            s(1.70),
            s(1.97),
            s(1.44),
            s(5.67),
            s(4.59),
            s(0.18),
            s(5.23),
        ],
        g: 1.5,
        g_star: Some(2.4),
    },
    PaperRow {
        label: "MonetDB vert/SO",
        real: [
            s(0.79),
            s(1.50),
            s(5.50),
            s(2.64),
            s(14.01),
            s(0.50),
            s(2.57),
            s(1.29),
            s(4.65),
            s(11.51),
            s(0.06),
            s(5.05),
        ],
        g: 0.9,
        g_star: Some(2.0),
    },
    PaperRow {
        label: "C-Store vert/SO",
        real: [
            s(0.59),
            s(1.35),
            None,
            s(4.08),
            None,
            s(1.52),
            None,
            s(12.95),
            s(12.04),
            None,
            s(0.77),
            None,
        ],
        g: 2.4,
        g_star: None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The transcribed rows must be internally consistent: recomputing the
    /// geometric means from the per-query numbers reproduces the paper's G
    /// and G* columns (±0.1 for rounding).
    #[test]
    fn paper_tables_are_internally_consistent() {
        // In paper order, the BASE7 positions within the 12-query row.
        const BASE7_POS: [usize; 7] = [0, 1, 3, 5, 7, 8, 10];
        for row in TABLE6.iter().chain(TABLE7.iter()) {
            let base: Vec<f64> = BASE7_POS.iter().filter_map(|&i| row.real[i]).collect();
            let g = swans_core::geometric_mean(&base);
            assert!(
                (g - row.g).abs() < 0.11,
                "{}: recomputed G {:.2} vs paper {:.2}",
                row.label,
                g,
                row.g
            );
            if let Some(gs) = row.g_star {
                let all: Vec<f64> = row.real.iter().filter_map(|&x| x).collect();
                assert_eq!(all.len(), 12);
                let g_star = swans_core::geometric_mean(&all);
                assert!(
                    (g_star - gs).abs() < 0.11,
                    "{}: recomputed G* {:.2} vs paper {:.2}",
                    row.label,
                    g_star,
                    gs
                );
            }
        }
    }

    #[test]
    fn table4_geometric_means_consistent() {
        for (label, qs, g) in TABLE4 {
            let got = swans_core::geometric_mean(&qs);
            assert!(
                (got - g).abs() < 0.1,
                "{label}: recomputed {got:.2} vs paper {g:.2}"
            );
        }
    }
}
