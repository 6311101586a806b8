//! A class database modelling the Java standard library surface the
//! generated programs use, with subtyping and overload resolution.

use std::borrow::Borrow;
use std::collections::HashMap;

use crate::ast::JavaType;

/// A method (or constructor) signature in the class database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name; constructors use the class's simple name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<JavaType>,
    /// Return type (`Void` for constructors; the checker substitutes the
    /// class type at `new` expressions).
    pub ret: JavaType,
    /// Whether the method is `static`.
    pub is_static: bool,
}

/// A static constant (e.g. `Cipher.ENCRYPT_MODE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantDef {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: JavaType,
    /// The integer value, when the constant is an `int` (used by the
    /// interpreter).
    pub int_value: Option<i64>,
}

/// A class or interface definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Fully-qualified name.
    pub name: String,
    /// Superclass (fully qualified), `None` only for `java.lang.Object`.
    pub superclass: Option<String>,
    /// Implemented/extended interfaces (fully qualified).
    pub interfaces: Vec<String>,
    /// Whether this is an interface.
    pub is_interface: bool,
    /// Constructors.
    pub constructors: Vec<MethodSig>,
    /// Methods (instance and static).
    pub methods: Vec<MethodSig>,
    /// Static constants.
    pub constants: Vec<ConstantDef>,
}

impl ClassDef {
    /// Creates a class extending `java.lang.Object` with no members.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let superclass = if name == "java.lang.Object" {
            None
        } else {
            Some("java.lang.Object".to_owned())
        };
        ClassDef {
            name,
            superclass,
            interfaces: Vec::new(),
            is_interface: false,
            constructors: Vec::new(),
            methods: Vec::new(),
            constants: Vec::new(),
        }
    }

    /// Marks this definition as an interface (builder style).
    pub fn interface(mut self) -> Self {
        self.is_interface = true;
        self
    }

    /// Sets the superclass (builder style).
    pub fn extends(mut self, superclass: impl Into<String>) -> Self {
        self.superclass = Some(superclass.into());
        self
    }

    /// Adds an implemented interface (builder style).
    pub fn implements(mut self, iface: impl Into<String>) -> Self {
        self.interfaces.push(iface.into());
        self
    }

    /// Adds a constructor (builder style).
    pub fn ctor(mut self, params: Vec<JavaType>) -> Self {
        let simple = self
            .name
            .rsplit('.')
            .next()
            .expect("class names are non-empty")
            .to_owned();
        self.constructors.push(MethodSig {
            name: simple,
            params,
            ret: JavaType::Void,
            is_static: false,
        });
        self
    }

    /// Adds an instance method (builder style).
    pub fn method(mut self, name: impl Into<String>, params: Vec<JavaType>, ret: JavaType) -> Self {
        self.methods.push(MethodSig {
            name: name.into(),
            params,
            ret,
            is_static: false,
        });
        self
    }

    /// Adds a static method (builder style).
    pub fn static_method(
        mut self,
        name: impl Into<String>,
        params: Vec<JavaType>,
        ret: JavaType,
    ) -> Self {
        self.methods.push(MethodSig {
            name: name.into(),
            params,
            ret,
            is_static: true,
        });
        self
    }

    /// Adds an `int` constant (builder style).
    pub fn int_constant(mut self, name: impl Into<String>, value: i64) -> Self {
        self.constants.push(ConstantDef {
            name: name.into(),
            ty: JavaType::Int,
            int_value: Some(value),
        });
        self
    }
}

/// The class database: fully-qualified name → definition. Subtype
/// queries and overload resolution come from [`ClassLookup`].
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    classes: HashMap<String, ClassDef>,
}

impl TypeTable {
    /// Creates an empty table containing only `java.lang.Object`.
    pub fn new() -> Self {
        let mut t = TypeTable {
            classes: HashMap::new(),
        };
        t.add(ClassDef::new("java.lang.Object"));
        t
    }

    /// Inserts a class definition, replacing any previous one of the same
    /// name.
    pub fn add(&mut self, def: ClassDef) {
        self.classes.insert(def.name.clone(), def);
    }

    /// Number of classes in the table.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All fully-qualified class names in the table (unordered).
    pub fn class_names(&self) -> Vec<String> {
        self.classes.keys().cloned().collect()
    }
}

/// A borrowed [`TypeTable`] plus one class of its own. The extra class
/// shadows a table class of the same name, exactly as [`TypeTable::add`]
/// would replace it, so checking against the overlay gives the answers a
/// cloned-and-extended table would, without copying the table.
#[derive(Debug, Clone, Copy)]
pub struct TableOverlay<'t> {
    base: &'t TypeTable,
    extra: &'t ClassDef,
}

impl<'t> TableOverlay<'t> {
    /// Layers `extra` over `base`.
    pub fn new(base: &'t TypeTable, extra: &'t ClassDef) -> Self {
        TableOverlay { base, extra }
    }
}

/// A class database the queries below run over: anything that can look a
/// class up by fully-qualified name. The subtype, assignability and
/// overload logic lives only here, so [`TypeTable`] and [`TableOverlay`]
/// answer every query the same way.
pub trait ClassLookup {
    /// Looks up a class by fully-qualified name.
    fn class(&self, name: &str) -> Option<&ClassDef>;

    /// Whether `sub` names a class that is `sup` or a transitive
    /// subclass/implementor of `sup`.
    fn is_subclass_of(&self, sub: &str, sup: &str) -> bool {
        if sub == sup {
            return true;
        }
        let Some(def) = self.class(sub) else {
            return false;
        };
        if let Some(s) = &def.superclass {
            if self.is_subclass_of(s, sup) {
                return true;
            }
        }
        def.interfaces.iter().any(|i| self.is_subclass_of(i, sup))
    }

    /// Java-style assignability for our subset: identical primitives,
    /// covariant-free arrays with identical element types, class widening
    /// along the subtype graph, and `null` → any reference type (the
    /// checker encodes `null` as `Class("java.lang.Object")` plus a flag,
    /// so it calls this only for non-null).
    fn is_assignable(&self, from: &JavaType, to: &JavaType) -> bool {
        match (from, to) {
            (a, b) if a == b => true,
            (JavaType::Class(f), JavaType::Class(t)) => self.is_subclass_of(f, t),
            (JavaType::Array(_), JavaType::Class(t)) => t == "java.lang.Object",
            _ => false,
        }
    }

    /// Resolves a constructor of `class` applicable to `args`.
    fn resolve_ctor<A: Borrow<JavaType>>(&self, class: &str, args: &[A]) -> Option<&MethodSig> {
        self.class(class)?
            .constructors
            .iter()
            .find(|c| applicable(self, &c.params, args))
    }

    /// Resolves a method of `class` (searching superclasses and
    /// interfaces) by name, staticness and applicability to `args`.
    fn resolve_method<A: Borrow<JavaType>>(
        &self,
        class: &str,
        name: &str,
        is_static: bool,
        args: &[A],
    ) -> Option<&MethodSig> {
        let def = self.class(class)?;
        if let Some(m) = def.methods.iter().find(|m| {
            m.name == name && m.is_static == is_static && applicable(self, &m.params, args)
        }) {
            return Some(m);
        }
        if let Some(s) = &def.superclass {
            if let Some(m) = self.resolve_method(s, name, is_static, args) {
                return Some(m);
            }
        }
        def.interfaces
            .iter()
            .find_map(|i| self.resolve_method(i, name, is_static, args))
    }

    /// Looks up a static constant on `class`.
    fn resolve_constant(&self, class: &str, field: &str) -> Option<&ConstantDef> {
        self.class(class)?
            .constants
            .iter()
            .find(|c| c.name == field)
    }
}

impl ClassLookup for TypeTable {
    fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }
}

impl ClassLookup for TableOverlay<'_> {
    fn class(&self, name: &str) -> Option<&ClassDef> {
        if name == self.extra.name {
            Some(self.extra)
        } else {
            self.base.class(name)
        }
    }
}

fn applicable<L: ClassLookup + ?Sized, A: Borrow<JavaType>>(
    classes: &L,
    params: &[JavaType],
    args: &[A],
) -> bool {
    params.len() == args.len()
        && params
            .iter()
            .zip(args)
            .all(|(p, a)| classes.is_assignable(a.borrow(), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TypeTable {
        let mut t = TypeTable::new();
        t.add(ClassDef::new("a.Key").interface());
        t.add(ClassDef::new("a.SecretKey").interface().implements("a.Key"));
        t.add(
            ClassDef::new("a.SecretKeySpec")
                .implements("a.SecretKey")
                .ctor(vec![JavaType::byte_array(), JavaType::string()]),
        );
        t.add(
            ClassDef::new("a.Cipher")
                .static_method(
                    "getInstance",
                    vec![JavaType::string()],
                    JavaType::class("a.Cipher"),
                )
                .method(
                    "init",
                    vec![JavaType::Int, JavaType::class("a.Key")],
                    JavaType::Void,
                )
                .int_constant("ENCRYPT_MODE", 1),
        );
        t
    }

    #[test]
    fn subtyping_walks_interfaces() {
        let t = sample();
        assert!(t.is_subclass_of("a.SecretKeySpec", "a.SecretKey"));
        assert!(t.is_subclass_of("a.SecretKeySpec", "a.Key"));
        assert!(t.is_subclass_of("a.SecretKeySpec", "java.lang.Object"));
        assert!(!t.is_subclass_of("a.Key", "a.SecretKey"));
    }

    #[test]
    fn assignability() {
        let t = sample();
        assert!(t.is_assignable(
            &JavaType::class("a.SecretKeySpec"),
            &JavaType::class("a.Key")
        ));
        assert!(!t.is_assignable(
            &JavaType::class("a.Key"),
            &JavaType::class("a.SecretKeySpec")
        ));
        assert!(t.is_assignable(&JavaType::Int, &JavaType::Int));
        assert!(!t.is_assignable(&JavaType::Int, &JavaType::Long));
        assert!(t.is_assignable(
            &JavaType::byte_array(),
            &JavaType::class("java.lang.Object")
        ));
    }

    #[test]
    fn overload_resolution_uses_assignability() {
        let t = sample();
        let m = t
            .resolve_method(
                "a.Cipher",
                "init",
                false,
                &[JavaType::Int, JavaType::class("a.SecretKeySpec")],
            )
            .unwrap();
        assert_eq!(m.params[1], JavaType::class("a.Key"));
        assert!(t
            .resolve_method("a.Cipher", "init", false, &[JavaType::Int, JavaType::Int])
            .is_none());
    }

    #[test]
    fn ctor_and_constant_lookup() {
        let t = sample();
        assert!(t
            .resolve_ctor(
                "a.SecretKeySpec",
                &[JavaType::byte_array(), JavaType::string()]
            )
            .is_some());
        assert!(t.resolve_ctor::<JavaType>("a.SecretKeySpec", &[]).is_none());
        let c = t.resolve_constant("a.Cipher", "ENCRYPT_MODE").unwrap();
        assert_eq!(c.int_value, Some(1));
    }

    #[test]
    fn method_lookup_searches_supertypes() {
        let mut t = sample();
        t.add(ClassDef::new("a.Base").method("go", vec![], JavaType::Void));
        t.add(ClassDef::new("a.Derived").extends("a.Base"));
        assert!(t
            .resolve_method::<JavaType>("a.Derived", "go", false, &[])
            .is_some());
    }
}
