//! Binary store codecs for built indexes and the paper's served schemes.
//!
//! The persistence boundary follows the build-once/serve-many split: an
//! [`AnnIndex`] payload is everything preprocessing produced (database,
//! sampled sketch family, database sketches, fault model), and a
//! [`SchemeSpec`] is the cheap query-side configuration layered over it
//! (Algorithm 1's `k`, an [`Alg2Config`], λ). A registry bundle stores
//! each index once and any number of specs pointing at it — reloading
//! restores the exact `Arc`-shared layout a serving deployment uses.
//!
//! [`StoredScheme`] is how trait-object schemes opt into persistence:
//! [`crate::serve::ServableScheme::stored`] returns the scheme's stored
//! form, with baseline schemes owned by other crates (LSH, linear scan)
//! contributing opaque payloads under their registered kind tags.

use std::sync::Arc;

use anns_store::{scheme_kind, ByteReader, ByteWriter, Codec, StoreError};

use crate::alg2::Alg2Config;
use crate::concrete::{AnnIndex, ErasureModel};
use crate::serve::{ServableScheme, ServeAlg1, ServeAlg2, ServeLambda};

impl Codec for ErasureModel {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.probability);
        w.put_u64(self.seed);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(ErasureModel {
            probability: r.f64()?,
            seed: r.u64()?,
        })
    }
}

impl Codec for Alg2Config {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.k);
        w.put_f64(self.c);
        self.tau_override.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(Alg2Config {
            k: r.u32()?,
            c: r.f64()?,
            tau_override: Option::decode(r)?,
        })
    }
}

impl Codec for AnnIndex {
    fn encode(&self, w: &mut ByteWriter) {
        self.dataset().encode(w);
        self.family().encode(w);
        self.db_sketches().encode(w);
        self.erasure_model().encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let dataset = anns_hamming::Dataset::decode(r)?;
        let family = anns_sketch::SketchFamily::decode(r)?;
        let db = anns_sketch::DbSketches::decode(r)?;
        let erasures = Option::decode(r)?;
        AnnIndex::from_parts(dataset, family, db, erasures).map_err(StoreError::Malformed)
    }
}

/// Query-side configuration of a core scheme, independent of the index
/// payload it runs over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchemeSpec {
    /// Algorithm 1 at round budget `k`.
    Alg1 {
        /// Round budget.
        k: u32,
        /// Optional grid-width override.
        tau_override: Option<u32>,
    },
    /// Algorithm 2 under a full configuration.
    Alg2(Alg2Config),
    /// The 1-probe λ-ANNS scheme.
    Lambda {
        /// Distance threshold λ.
        lambda: f64,
    },
    /// Subsampled repetition over inner schemes
    /// ([`crate::subsample::SubsampledRepetition`]). This spec is only
    /// the wrapper's own parameters; the inner schemes ride in the
    /// shard record itself (see the bundle codec in `anns-engine`), so
    /// [`SchemeSpec::instantiate`] cannot build it from one index.
    Subsampled {
        /// Subsample size `K`.
        sample: u32,
        /// Subsample-selection seed.
        seed: u64,
        /// Aggregation rule over the `K` answers.
        agg: crate::subsample::Aggregation,
    },
}

impl SchemeSpec {
    /// The scheme-kind tag this spec encodes under.
    pub fn kind(&self) -> u8 {
        match self {
            SchemeSpec::Alg1 { .. } => scheme_kind::ALG1,
            SchemeSpec::Alg2(_) => scheme_kind::ALG2,
            SchemeSpec::Lambda { .. } => scheme_kind::LAMBDA,
            SchemeSpec::Subsampled { .. } => scheme_kind::SUBSAMPLE,
        }
    }

    /// Instantiates the servable scheme over a (shared) index.
    ///
    /// # Panics
    ///
    /// For [`SchemeSpec::Subsampled`]: the wrapper's record carries its
    /// inner schemes and is instantiated by the bundle loader through
    /// [`crate::subsample::SubsampledRepetition::new`], never here.
    pub fn instantiate(&self, index: Arc<AnnIndex>) -> Box<dyn ServableScheme> {
        match *self {
            SchemeSpec::Alg1 { k, tau_override } => Box::new(ServeAlg1 {
                index,
                k,
                tau_override,
            }),
            SchemeSpec::Alg2(config) => Box::new(ServeAlg2 { index, config }),
            SchemeSpec::Lambda { lambda } => Box::new(ServeLambda { index, lambda }),
            SchemeSpec::Subsampled { .. } => {
                panic!("SchemeSpec::Subsampled carries inner schemes; use the bundle loader")
            }
        }
    }

    /// Decodes a spec of a known core kind (the shard record's kind byte
    /// is read by the bundle loader before the spec payload).
    pub fn decode_kind(kind: u8, r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match kind {
            scheme_kind::ALG1 => Ok(SchemeSpec::Alg1 {
                k: r.u32()?,
                tau_override: Option::decode(r)?,
            }),
            scheme_kind::ALG2 => Ok(SchemeSpec::Alg2(Alg2Config::decode(r)?)),
            scheme_kind::LAMBDA => Ok(SchemeSpec::Lambda { lambda: r.f64()? }),
            scheme_kind::SUBSAMPLE => {
                let sample = r.u32()?;
                let seed = r.u64()?;
                let byte = r.u8()?;
                let agg = crate::subsample::Aggregation::from_byte(byte).ok_or_else(|| {
                    StoreError::Malformed(format!("unknown aggregation byte {byte}"))
                })?;
                Ok(SchemeSpec::Subsampled { sample, seed, agg })
            }
            other => Err(StoreError::UnknownSchemeKind(other)),
        }
    }

    /// Encodes the spec payload (kind byte excluded — the shard record
    /// owns it).
    pub fn encode_payload(&self, w: &mut ByteWriter) {
        match *self {
            SchemeSpec::Alg1 { k, tau_override } => {
                w.put_u32(k);
                tau_override.encode(w);
            }
            SchemeSpec::Alg2(config) => config.encode(w),
            SchemeSpec::Lambda { lambda } => w.put_f64(lambda),
            SchemeSpec::Subsampled { sample, seed, agg } => {
                w.put_u32(sample);
                w.put_u64(seed);
                w.put_u8(agg.to_byte());
            }
        }
    }
}

/// The stored form of a servable scheme: a core spec over a shared index,
/// or an opaque foreign payload another crate encodes and decodes.
pub enum StoredScheme {
    /// A core scheme: index payload (pooled by the bundle writer) + spec.
    Core {
        /// The shared built index.
        index: Arc<AnnIndex>,
        /// Query-side configuration.
        spec: SchemeSpec,
    },
    /// A scheme whose payload another crate owns (kind ≥ 16).
    Foreign {
        /// Registered scheme-kind tag.
        kind: u8,
        /// The scheme's self-contained encoding.
        payload: Vec<u8>,
    },
    /// Subsampled repetition: wrapper parameters plus the stored form
    /// of every inner replica (which may be `Core` or `Foreign`, but
    /// not nested `Subsampled` — the bundle codec rejects that).
    Subsampled {
        /// Subsample size `K`.
        sample: u32,
        /// Subsample-selection seed.
        seed: u64,
        /// Aggregation rule.
        agg: crate::subsample::Aggregation,
        /// Stored inner replicas, in replica order.
        inners: Vec<StoredScheme>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::BuildOptions;
    use anns_hamming::gen;
    use anns_sketch::SketchParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_index(erasures: Option<ErasureModel>) -> (AnnIndex, anns_hamming::Point) {
        let mut rng = StdRng::seed_from_u64(31);
        let inst = gen::planted(48, 96, 5, &mut rng);
        let index = AnnIndex::build(
            inst.dataset,
            SketchParams::practical(2.0, 8),
            BuildOptions {
                erasures,
                ..BuildOptions::default()
            },
        );
        (index, inst.query)
    }

    #[test]
    fn index_roundtrip_preserves_query_behaviour() {
        let (index, query) = small_index(None);
        let back = AnnIndex::from_bytes(&index.to_bytes()).unwrap();
        for k in 1..=3u32 {
            let (o1, l1) = index.query(&query, k);
            let (o2, l2) = back.query(&query, k);
            assert_eq!(o1, o2, "k={k}");
            assert_eq!(l1, l2, "k={k}");
        }
    }

    #[test]
    fn erasure_model_survives_the_store() {
        let model = ErasureModel {
            probability: 0.5,
            seed: 77,
        };
        let (index, query) = small_index(Some(model));
        let back = AnnIndex::from_bytes(&index.to_bytes()).unwrap();
        let got = back.erasure_model().expect("model persisted");
        assert_eq!(got.probability, model.probability);
        assert_eq!(got.seed, model.seed);
        let (o1, l1) = index.query(&query, 3);
        let (o2, l2) = back.query(&query, 3);
        assert_eq!(o1, o2);
        assert_eq!(l1, l2);
    }

    /// An index payload with hand-encoded db sketches: `scales` scales per
    /// kind, every M sketch `m_bits` and every N sketch `n_bits` wide (all
    /// zero limbs), in the stored slab layout.
    fn payload_with_db(index: &AnnIndex, m_bits: u32, n_bits: u32, scales: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        index.dataset().encode(&mut w);
        index.family().encode(&mut w);
        let points = index.dataset().len();
        for bits in [m_bits, n_bits] {
            w.put_u32(bits);
            w.put_u64(scales as u64);
            w.put_u64(points as u64);
            w.align(8);
            w.put_raw(&vec![0; scales * points * 8 * bits.div_ceil(64) as usize]);
        }
        index.erasure_model().encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn db_sketches_of_the_wrong_shape_are_malformed() {
        let (index, query) = small_index(None);
        let family = index.family();
        let (m_rows, n_rows) = (family.m_rows(), family.n_rows());
        let scales = family.top() as usize + 1;
        // Control: the family's shape decodes and serves.
        let ok = AnnIndex::from_bytes(&payload_with_db(&index, m_rows, n_rows, scales))
            .expect("family-shaped sketches decode");
        let _ = ok.query(&query, 3);
        // Narrower sketches (fewer limbs, or the same limbs but fewer
        // bits), and too few or too many scales, are typed errors at
        // decode instead of panics at the first query.
        for (m_bits, n_bits, scales) in [
            (8, 8, scales),
            (m_rows - 1, n_rows, scales),
            (m_rows, n_rows - 1, scales),
            (m_rows + 64, n_rows, scales),
            (m_rows, n_rows, scales - 1),
            (m_rows, n_rows, scales + 1),
        ] {
            let bytes = payload_with_db(&index, m_bits, n_bits, scales);
            assert!(
                matches!(AnnIndex::from_bytes(&bytes), Err(StoreError::Malformed(_))),
                "m_bits={m_bits} n_bits={n_bits} scales={scales}"
            );
        }
    }

    #[test]
    fn spec_roundtrip_over_every_kind() {
        let specs = [
            SchemeSpec::Alg1 {
                k: 4,
                tau_override: Some(9),
            },
            SchemeSpec::Alg2(Alg2Config::with_k(12)),
            SchemeSpec::Lambda { lambda: 6.5 },
        ];
        for spec in specs {
            let mut w = ByteWriter::new();
            spec.encode_payload(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = SchemeSpec::decode_kind(spec.kind(), &mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn unknown_spec_kind_is_typed() {
        let mut r = ByteReader::new(&[]);
        assert!(matches!(
            SchemeSpec::decode_kind(200, &mut r),
            Err(StoreError::UnknownSchemeKind(200))
        ));
    }

    #[test]
    fn specs_instantiate_the_matching_scheme() {
        let (index, _) = small_index(None);
        let index = Arc::new(index);
        let labels = [
            (
                SchemeSpec::Alg1 {
                    k: 3,
                    tau_override: None,
                },
                "alg1[k=3]",
            ),
            (SchemeSpec::Alg2(Alg2Config::with_k(8)), "alg2[k=8]"),
            (SchemeSpec::Lambda { lambda: 4.0 }, "lambda[4]"),
        ];
        for (spec, label) in labels {
            assert_eq!(spec.instantiate(Arc::clone(&index)).label(), label);
        }
    }
}
