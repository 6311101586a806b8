//! The modelled Java Cryptography Architecture (JCA) surface.
//!
//! This is the class database the generated programs are type-checked
//! against. It covers every class the paper's eleven use cases touch:
//! key specification and derivation, symmetric/asymmetric ciphers,
//! digests, MACs, signatures, key generation, and the small utility
//! surface (strings, files) the glue code needs.

use crate::ast::JavaType;
use crate::typetable::{ClassDef, TypeTable};

/// Fully-qualified names of the modelled JCA classes, as constants so the
/// generator, rules and analyzers agree on spelling.
pub mod names {
    /// `java.lang.String`
    pub const STRING: &str = "java.lang.String";
    /// `java.lang.Object`
    pub const OBJECT: &str = "java.lang.Object";
    /// `java.security.SecureRandom`
    pub const SECURE_RANDOM: &str = "java.security.SecureRandom";
    /// `javax.crypto.spec.PBEKeySpec`
    pub const PBE_KEY_SPEC: &str = "javax.crypto.spec.PBEKeySpec";
    /// `javax.crypto.SecretKeyFactory`
    pub const SECRET_KEY_FACTORY: &str = "javax.crypto.SecretKeyFactory";
    /// `javax.crypto.SecretKey`
    pub const SECRET_KEY: &str = "javax.crypto.SecretKey";
    /// `javax.crypto.spec.SecretKeySpec`
    pub const SECRET_KEY_SPEC: &str = "javax.crypto.spec.SecretKeySpec";
    /// `javax.crypto.KeyGenerator`
    pub const KEY_GENERATOR: &str = "javax.crypto.KeyGenerator";
    /// `javax.crypto.Cipher`
    pub const CIPHER: &str = "javax.crypto.Cipher";
    /// `javax.crypto.spec.IvParameterSpec`
    pub const IV_PARAMETER_SPEC: &str = "javax.crypto.spec.IvParameterSpec";
    /// `javax.crypto.spec.GCMParameterSpec`
    pub const GCM_PARAMETER_SPEC: &str = "javax.crypto.spec.GCMParameterSpec";
    /// `java.security.MessageDigest`
    pub const MESSAGE_DIGEST: &str = "java.security.MessageDigest";
    /// `java.security.Signature`
    pub const SIGNATURE: &str = "java.security.Signature";
    /// `java.security.KeyPairGenerator`
    pub const KEY_PAIR_GENERATOR: &str = "java.security.KeyPairGenerator";
    /// `java.security.KeyPair`
    pub const KEY_PAIR: &str = "java.security.KeyPair";
    /// `java.security.Key`
    pub const KEY: &str = "java.security.Key";
    /// `java.security.PrivateKey`
    pub const PRIVATE_KEY: &str = "java.security.PrivateKey";
    /// `java.security.PublicKey`
    pub const PUBLIC_KEY: &str = "java.security.PublicKey";
    /// `javax.crypto.Mac`
    pub const MAC: &str = "javax.crypto.Mac";
    /// `javax.crypto.KeyAgreement`
    pub const KEY_AGREEMENT: &str = "javax.crypto.KeyAgreement";
    /// `javax.crypto.KDF` (HKDF, modelled after the JDK 24 KDF API with
    /// a positional `deriveData` instead of `HKDFParameterSpec`)
    pub const KDF: &str = "javax.crypto.KDF";
    /// `java.security.spec.KeySpec`
    pub const KEY_SPEC: &str = "java.security.spec.KeySpec";
    /// `java.security.spec.AlgorithmParameterSpec`
    pub const ALGORITHM_PARAMETER_SPEC: &str = "java.security.spec.AlgorithmParameterSpec";
    /// `java.io.File`
    pub const FILE: &str = "java.io.File";
    /// `java.nio.file.Files` (modelled static helpers)
    pub const FILES: &str = "java.nio.file.Files";
    /// `java.util.Arrays`
    pub const ARRAYS: &str = "java.util.Arrays";
    /// `java.util.Base64` (modelled as static encode/decode helpers)
    pub const BASE64: &str = "java.util.Base64";
    /// `de.cognicrypt.util.ByteArrays` — glue helper for IV/ciphertext
    /// framing (the paper's templates use `System.arraycopy`; we model the
    /// same capability as a small utility class)
    pub const BYTE_ARRAYS: &str = "de.cognicrypt.util.ByteArrays";
}

use names::*;

fn cls(n: &str) -> JavaType {
    JavaType::class(n)
}

/// Builds the modelled JCA type table.
///
/// The table is deterministic; callers may cache it. See the
/// [crate-level docs](crate) for an end-to-end example.
pub fn jca_type_table() -> TypeTable {
    let mut t = TypeTable::new();

    t.add(
        ClassDef::new(STRING)
            .ctor(vec![JavaType::byte_array()])
            .ctor(vec![JavaType::char_array()])
            .method("getBytes", vec![], JavaType::byte_array())
            .method("toCharArray", vec![], JavaType::char_array())
            .method("equals", vec![cls(OBJECT)], JavaType::Boolean)
            .method("length", vec![], JavaType::Int),
    );

    // --- interfaces -----------------------------------------------------
    t.add(
        ClassDef::new(KEY)
            .interface()
            .method("getEncoded", vec![], JavaType::byte_array())
            .method("getAlgorithm", vec![], cls(STRING)),
    );
    t.add(ClassDef::new(SECRET_KEY).interface().implements(KEY));
    t.add(ClassDef::new(PRIVATE_KEY).interface().implements(KEY));
    t.add(ClassDef::new(PUBLIC_KEY).interface().implements(KEY));
    t.add(ClassDef::new(KEY_SPEC).interface());
    t.add(ClassDef::new(ALGORITHM_PARAMETER_SPEC).interface());

    // --- randomness -----------------------------------------------------
    t.add(
        ClassDef::new(SECURE_RANDOM)
            .static_method("getInstance", vec![cls(STRING)], cls(SECURE_RANDOM))
            .method("nextBytes", vec![JavaType::byte_array()], JavaType::Void)
            .method("nextInt", vec![JavaType::Int], JavaType::Int),
    );

    // --- key specification & derivation ----------------------------------
    t.add(
        ClassDef::new(PBE_KEY_SPEC)
            .implements(KEY_SPEC)
            .ctor(vec![JavaType::char_array()])
            .ctor(vec![
                JavaType::char_array(),
                JavaType::byte_array(),
                JavaType::Int,
                JavaType::Int,
            ])
            .method("clearPassword", vec![], JavaType::Void),
    );
    t.add(
        ClassDef::new(SECRET_KEY_FACTORY)
            .static_method("getInstance", vec![cls(STRING)], cls(SECRET_KEY_FACTORY))
            .method("generateSecret", vec![cls(KEY_SPEC)], cls(SECRET_KEY)),
    );
    t.add(
        ClassDef::new(SECRET_KEY_SPEC)
            .implements(SECRET_KEY)
            .implements(KEY_SPEC)
            .ctor(vec![JavaType::byte_array(), cls(STRING)]),
    );
    t.add(
        ClassDef::new(KEY_GENERATOR)
            .static_method("getInstance", vec![cls(STRING)], cls(KEY_GENERATOR))
            .method("init", vec![JavaType::Int], JavaType::Void)
            .method(
                "init",
                vec![JavaType::Int, cls(SECURE_RANDOM)],
                JavaType::Void,
            )
            .method("generateKey", vec![], cls(SECRET_KEY)),
    );

    // --- ciphers ----------------------------------------------------------
    t.add(
        ClassDef::new(CIPHER)
            .static_method("getInstance", vec![cls(STRING)], cls(CIPHER))
            .method("init", vec![JavaType::Int, cls(KEY)], JavaType::Void)
            .method(
                "init",
                vec![JavaType::Int, cls(KEY), cls(ALGORITHM_PARAMETER_SPEC)],
                JavaType::Void,
            )
            .method(
                "doFinal",
                vec![JavaType::byte_array()],
                JavaType::byte_array(),
            )
            .method(
                "update",
                vec![JavaType::byte_array()],
                JavaType::byte_array(),
            )
            .method("getIV", vec![], JavaType::byte_array())
            .method("wrap", vec![cls(KEY)], JavaType::byte_array())
            .method(
                "unwrap",
                vec![JavaType::byte_array(), cls(STRING), JavaType::Int],
                cls(KEY),
            )
            .int_constant("ENCRYPT_MODE", 1)
            .int_constant("DECRYPT_MODE", 2)
            .int_constant("WRAP_MODE", 3)
            .int_constant("UNWRAP_MODE", 4)
            .int_constant("SECRET_KEY", 3)
            .int_constant("PRIVATE_KEY", 2)
            .int_constant("PUBLIC_KEY", 1),
    );
    t.add(
        ClassDef::new(IV_PARAMETER_SPEC)
            .implements(ALGORITHM_PARAMETER_SPEC)
            .ctor(vec![JavaType::byte_array()]),
    );
    t.add(
        ClassDef::new(GCM_PARAMETER_SPEC)
            .implements(ALGORITHM_PARAMETER_SPEC)
            .ctor(vec![JavaType::Int, JavaType::byte_array()]),
    );

    // --- digests, MACs, signatures ---------------------------------------
    t.add(
        ClassDef::new(MESSAGE_DIGEST)
            .static_method("getInstance", vec![cls(STRING)], cls(MESSAGE_DIGEST))
            .method("update", vec![JavaType::byte_array()], JavaType::Void)
            .method("digest", vec![], JavaType::byte_array())
            .method(
                "digest",
                vec![JavaType::byte_array()],
                JavaType::byte_array(),
            ),
    );
    t.add(
        ClassDef::new(MAC)
            .static_method("getInstance", vec![cls(STRING)], cls(MAC))
            .method("init", vec![cls(KEY)], JavaType::Void)
            .method(
                "doFinal",
                vec![JavaType::byte_array()],
                JavaType::byte_array(),
            ),
    );
    t.add(
        ClassDef::new(SIGNATURE)
            .static_method("getInstance", vec![cls(STRING)], cls(SIGNATURE))
            .method("initSign", vec![cls(PRIVATE_KEY)], JavaType::Void)
            .method("initVerify", vec![cls(PUBLIC_KEY)], JavaType::Void)
            .method("update", vec![JavaType::byte_array()], JavaType::Void)
            .method("sign", vec![], JavaType::byte_array())
            .method("verify", vec![JavaType::byte_array()], JavaType::Boolean),
    );

    // --- key agreement & derivation ----------------------------------------
    t.add(
        ClassDef::new(KEY_AGREEMENT)
            .static_method("getInstance", vec![cls(STRING)], cls(KEY_AGREEMENT))
            .method("init", vec![cls(PRIVATE_KEY)], JavaType::Void)
            .method("doPhase", vec![cls(PUBLIC_KEY)], JavaType::Void)
            .method("generateSecret", vec![], JavaType::byte_array()),
    );
    t.add(
        ClassDef::new(KDF)
            .static_method("getInstance", vec![cls(STRING)], cls(KDF))
            .method(
                "deriveData",
                vec![
                    JavaType::byte_array(),
                    JavaType::byte_array(),
                    JavaType::byte_array(),
                    JavaType::Int,
                ],
                JavaType::byte_array(),
            ),
    );

    // --- key pairs ---------------------------------------------------------
    t.add(
        ClassDef::new(KEY_PAIR_GENERATOR)
            .static_method("getInstance", vec![cls(STRING)], cls(KEY_PAIR_GENERATOR))
            .method("initialize", vec![JavaType::Int], JavaType::Void)
            .method(
                "initialize",
                vec![JavaType::Int, cls(SECURE_RANDOM)],
                JavaType::Void,
            )
            .method("generateKeyPair", vec![], cls(KEY_PAIR)),
    );
    t.add(
        ClassDef::new(KEY_PAIR)
            .method("getPrivate", vec![], cls(PRIVATE_KEY))
            .method("getPublic", vec![], cls(PUBLIC_KEY)),
    );

    // --- glue-code helpers --------------------------------------------------
    t.add(ClassDef::new(FILE).ctor(vec![cls(STRING)]));
    t.add(
        ClassDef::new(FILES)
            .static_method("readAllBytes", vec![cls(STRING)], JavaType::byte_array())
            .static_method(
                "write",
                vec![cls(STRING), JavaType::byte_array()],
                JavaType::Void,
            ),
    );
    t.add(
        ClassDef::new(ARRAYS)
            .static_method(
                "fill",
                vec![JavaType::char_array(), JavaType::Char],
                JavaType::Void,
            )
            .static_method(
                "equals",
                vec![JavaType::byte_array(), JavaType::byte_array()],
                JavaType::Boolean,
            ),
    );
    t.add(
        ClassDef::new(BASE64)
            .static_method("encode", vec![JavaType::byte_array()], cls(STRING))
            .static_method("decode", vec![cls(STRING)], JavaType::byte_array()),
    );
    t.add(
        ClassDef::new(BYTE_ARRAYS)
            .static_method(
                "concat",
                vec![JavaType::byte_array(), JavaType::byte_array()],
                JavaType::byte_array(),
            )
            .static_method(
                "slice",
                vec![JavaType::byte_array(), JavaType::Int, JavaType::Int],
                JavaType::byte_array(),
            )
            .static_method("length", vec![JavaType::byte_array()], JavaType::Int),
    );

    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typetable::ClassLookup;

    #[test]
    fn table_contains_all_use_case_classes() {
        let t = jca_type_table();
        for n in [
            SECURE_RANDOM,
            PBE_KEY_SPEC,
            SECRET_KEY_FACTORY,
            SECRET_KEY,
            SECRET_KEY_SPEC,
            KEY_GENERATOR,
            CIPHER,
            IV_PARAMETER_SPEC,
            GCM_PARAMETER_SPEC,
            MESSAGE_DIGEST,
            MAC,
            SIGNATURE,
            KEY_PAIR_GENERATOR,
            KEY_PAIR,
            KEY_AGREEMENT,
            KDF,
        ] {
            assert!(t.class(n).is_some(), "missing {n}");
        }
        assert!(t.len() >= 20);
    }

    #[test]
    fn secret_key_spec_is_a_key_and_a_key_spec() {
        let t = jca_type_table();
        assert!(t.is_subclass_of(SECRET_KEY_SPEC, SECRET_KEY));
        assert!(t.is_subclass_of(SECRET_KEY_SPEC, KEY));
        assert!(t.is_subclass_of(SECRET_KEY_SPEC, KEY_SPEC));
        assert!(t.is_subclass_of(PBE_KEY_SPEC, KEY_SPEC));
        assert!(!t.is_subclass_of(PBE_KEY_SPEC, KEY));
    }

    #[test]
    fn cipher_init_overloads_resolve() {
        let t = jca_type_table();
        assert!(t
            .resolve_method(CIPHER, "init", false, &[JavaType::Int, cls(SECRET_KEY)])
            .is_some());
        assert!(t
            .resolve_method(
                CIPHER,
                "init",
                false,
                &[JavaType::Int, cls(SECRET_KEY), cls(IV_PARAMETER_SPEC)]
            )
            .is_some());
        assert!(t
            .resolve_method(CIPHER, "init", false, &[cls(SECRET_KEY)])
            .is_none());
    }

    #[test]
    fn constants_present() {
        let t = jca_type_table();
        assert_eq!(
            t.resolve_constant(CIPHER, "ENCRYPT_MODE")
                .unwrap()
                .int_value,
            Some(1)
        );
        assert_eq!(
            t.resolve_constant(CIPHER, "DECRYPT_MODE")
                .unwrap()
                .int_value,
            Some(2)
        );
    }
}
