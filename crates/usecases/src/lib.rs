//! The cryptographic use-case catalogue: the paper's Table 1 (rows 1–11)
//! plus the scale-out families the same engine generates.
//!
//! | # | Use case | Module |
//! |---|----------|--------|
//! | 1 | PBE on files | [`pbe`] |
//! | 2 | PBE on strings | [`pbe`] |
//! | 3 | PBE on byte arrays | [`pbe`] |
//! | 4 | Symmetric-key encryption | [`symmetric`] |
//! | 5 | Hybrid file encryption | [`hybrid`] |
//! | 6 | Hybrid string encryption | [`hybrid`] |
//! | 7 | Hybrid byte-array encryption | [`hybrid`] |
//! | 8 | Asymmetric string encryption | [`asymmetric`] |
//! | 9 | Secure user-password storage | [`password`] |
//! | 10 | Digital signing of strings | [`signing`] |
//! | 11 | Hashing of strings | [`hashing`] |
//! | 12 | Authenticated encryption (AES-GCM) | [`gcm`] |
//! | 13 | Deterministic AEAD (AES-GCM-SIV) | [`aead`] |
//! | 14 | ChaCha20-Poly1305 on byte arrays | [`aead`] |
//! | 15 | ChaCha20-Poly1305 on strings | [`aead`] |
//! | 16 | AES-CTR stream encryption | [`aead`] |
//! | 17 | DH shared-secret derivation | [`agreement`] |
//! | 18 | ECDH shared-secret derivation | [`agreement`] |
//! | 19 | DH session encryption (AES-GCM) | [`agreement`] |
//! | 20 | ECDH session encryption (ChaCha20-Poly1305) | [`agreement`] |
//! | 21 | MAC under an agreed key | [`agreement`] |
//! | 22 | HMAC token minting | [`token`] |
//! | 23 | HKDF subkey expansion | [`token`] |
//! | 24 | HKDF-derived MAC tokens | [`token`] |
//! | 25 | Password-derived MAC tokens | [`token`] |
//! | 26 | Key export/import transport | [`token`] |
//!
//! Use cases 1–3 share the same fluent-API chains and differ only in
//! wrapper glue, as the paper observes; the same holds for 5–7 and
//! for 14–15.

pub mod aead;
pub mod agreement;
pub mod asymmetric;
pub mod gcm;
pub mod hashing;
pub mod hybrid;
pub mod password;
pub mod pbe;
pub mod signing;
pub mod symmetric;
pub mod token;

use std::sync::LazyLock;

use cognicrypt_core::Template;

/// Package all use-case templates generate into.
pub const PACKAGE: &str = "de.crypto.cognicrypt";

/// A catalogued use case: its Table 1 row, name, sources and template.
#[derive(Debug, Clone)]
pub struct UseCase {
    /// Row number in the paper's Table 1.
    pub id: u8,
    /// Human-readable name, as in Table 1.
    pub name: &'static str,
    /// Source citations from Table 1 (`[21]` = CogniCrypt, `[27]` =
    /// CryptoExamples, `[29]` = Nadi et al.).
    pub sources: &'static str,
    /// The code template.
    pub template: Template,
}

/// The full catalogue in id order, built once per process and
/// borrowed for its lifetime. Lookups on a hot path (the daemon's
/// `generate` and `batch`, the CLI's selector resolution) read this
/// instead of rebuilding every template with [`all_use_cases`].
pub fn catalogue() -> &'static [UseCase] {
    static CATALOGUE: LazyLock<Vec<UseCase>> = LazyLock::new(all_use_cases);
    &CATALOGUE
}

/// The full catalogue in id order: Table 1 rows 1–11, then the AEAD
/// (12–16), key-agreement (17–21) and token (22–26) families. Each
/// call builds fresh, owned templates; see [`catalogue`] for the
/// shared, borrowed copy.
pub fn all_use_cases() -> Vec<UseCase> {
    vec![
        UseCase {
            id: 1,
            name: "PBE on Files",
            sources: "[21]",
            template: pbe::pbe_files(),
        },
        UseCase {
            id: 2,
            name: "PBE on Strings",
            sources: "[21], [27]",
            template: pbe::pbe_strings(),
        },
        UseCase {
            id: 3,
            name: "PBE on Byte-Arrays",
            sources: "[21]",
            template: pbe::pbe_byte_arrays(),
        },
        UseCase {
            id: 4,
            name: "Symmetric-Key Encryption",
            sources: "[27], [29]",
            template: symmetric::symmetric_encryption(),
        },
        UseCase {
            id: 5,
            name: "Hybrid File Encryption",
            sources: "[21]",
            template: hybrid::hybrid_files(),
        },
        UseCase {
            id: 6,
            name: "Hybrid String Encryption",
            sources: "[21]",
            template: hybrid::hybrid_strings(),
        },
        UseCase {
            id: 7,
            name: "Hybrid Byte-Array Encryption",
            sources: "[21]",
            template: hybrid::hybrid_byte_arrays(),
        },
        UseCase {
            id: 8,
            name: "Asymmetric String Encryption",
            sources: "[27]",
            template: asymmetric::asymmetric_strings(),
        },
        UseCase {
            id: 9,
            name: "Secure User-Password Storage",
            sources: "[21], [27]",
            template: password::password_storage(),
        },
        UseCase {
            id: 10,
            name: "Digital Signing of Strings",
            sources: "[21], [27], [29]",
            template: signing::signing_strings(),
        },
        UseCase {
            id: 11,
            name: "Hashing of Strings",
            sources: "[27]",
            template: hashing::hashing_strings(),
        },
        UseCase {
            id: 12,
            name: "Authenticated Encryption (AES-GCM)",
            sources: "ext",
            template: gcm::authenticated_encryption(),
        },
        UseCase {
            id: 13,
            name: "Deterministic AEAD (AES-GCM-SIV)",
            sources: "ext",
            template: aead::gcm_siv_encryption(),
        },
        UseCase {
            id: 14,
            name: "ChaCha20-Poly1305 on Byte-Arrays",
            sources: "ext",
            template: aead::chacha_poly_encryption(),
        },
        UseCase {
            id: 15,
            name: "ChaCha20-Poly1305 on Strings",
            sources: "ext",
            template: aead::chacha_poly_strings(),
        },
        UseCase {
            id: 16,
            name: "AES-CTR Stream Encryption",
            sources: "ext",
            template: aead::ctr_encryption(),
        },
        UseCase {
            id: 17,
            name: "DH Shared-Secret Derivation",
            sources: "ext",
            template: agreement::dh_agreement(),
        },
        UseCase {
            id: 18,
            name: "ECDH Shared-Secret Derivation",
            sources: "ext",
            template: agreement::ecdh_agreement(),
        },
        UseCase {
            id: 19,
            name: "DH Session Encryption (AES-GCM)",
            sources: "ext",
            template: agreement::dh_session_encryption(),
        },
        UseCase {
            id: 20,
            name: "ECDH Session Encryption (ChaCha20-Poly1305)",
            sources: "ext",
            template: agreement::ecdh_session_encryption(),
        },
        UseCase {
            id: 21,
            name: "MAC under an Agreed Key",
            sources: "ext",
            template: agreement::agreed_mac(),
        },
        UseCase {
            id: 22,
            name: "HMAC Token Minting",
            sources: "ext",
            template: token::hmac_token(),
        },
        UseCase {
            id: 23,
            name: "HKDF Subkey Expansion",
            sources: "ext",
            template: token::hkdf_subkeys(),
        },
        UseCase {
            id: 24,
            name: "HKDF-Derived MAC Tokens",
            sources: "ext",
            template: token::derived_mac_token(),
        },
        UseCase {
            id: 25,
            name: "Password-Derived MAC Tokens",
            sources: "ext",
            template: token::password_mac_token(),
        },
        UseCase {
            id: 26,
            name: "Key Export/Import Transport",
            sources: "ext",
            template: token::key_transport(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cognicrypt_core::generate;
    use javamodel::jca::jca_type_table;

    #[test]
    fn catalog_has_at_least_twenty_five_entries_in_order() {
        let ucs = all_use_cases();
        assert!(ucs.len() >= 25, "only {} use cases", ucs.len());
        for (i, uc) in ucs.iter().enumerate() {
            assert_eq!(uc.id as usize, i + 1);
        }
        // Class names are unique: they double as generation targets.
        let mut names: Vec<_> = ucs.iter().map(|u| u.template.class_name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ucs.len());
    }

    #[test]
    fn catalogue_is_built_once_and_matches_all_use_cases() {
        let shared = catalogue();
        assert!(std::ptr::eq(shared, catalogue()));
        let fresh = all_use_cases();
        assert_eq!(shared.len(), fresh.len());
        for (a, b) in shared.iter().zip(&fresh) {
            assert_eq!((a.id, a.name, a.sources), (b.id, b.name, b.sources));
            assert_eq!(a.template, b.template);
        }
    }

    #[test]
    fn every_use_case_generates_without_fallback() {
        let rules = rules::open(rules::PackSource::Embedded).unwrap().rules;
        let table = jca_type_table();
        for uc in all_use_cases() {
            let generated = generate(&uc.template, &rules, &table)
                .unwrap_or_else(|e| panic!("use case {} ({}): {e}", uc.id, uc.name));
            assert!(
                generated.hoisted.is_empty(),
                "use case {} needed the fallback: {:?}",
                uc.id,
                generated.hoisted
            );
        }
    }

    #[test]
    fn hybrid_variants_share_chains_but_not_glue() {
        // Paper §5.1: "The same is true for use cases 5–7."
        let h5 = hybrid::hybrid_files();
        let h6 = hybrid::hybrid_strings();
        let h7 = hybrid::hybrid_byte_arrays();
        let rules_of = |t: &Template| -> Vec<Vec<String>> {
            t.methods
                .iter()
                .filter_map(|m| m.chain.as_ref())
                .map(|c| c.entries.iter().map(|e| e.rule.clone()).collect())
                .collect()
        };
        assert_eq!(rules_of(&h5), rules_of(&h6));
        assert_eq!(rules_of(&h6), rules_of(&h7));
        assert_ne!(h5, h6);
        assert_ne!(h6, h7);
    }

    #[test]
    fn pbe_variants_share_chains_but_not_glue() {
        // Paper §5.1: use cases 1–3 have the exact same fluent-API calls.
        let c1 = pbe::pbe_files();
        let c2 = pbe::pbe_strings();
        let c3 = pbe::pbe_byte_arrays();
        let chains =
            |t: &Template| -> Vec<_> { t.methods.iter().filter_map(|m| m.chain.clone()).collect() };
        let (a, b, c) = (chains(&c1), chains(&c2), chains(&c3));
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            let rules_of = |ch: &cognicrypt_core::template::GeneratorChain| {
                ch.entries
                    .iter()
                    .map(|e| e.rule.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(rules_of(x), rules_of(y));
            assert_eq!(rules_of(y), rules_of(z));
        }
        assert_ne!(c1, c2);
    }
}
