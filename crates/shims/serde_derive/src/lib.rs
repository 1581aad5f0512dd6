//! `#[derive(Serialize, Deserialize)]` for the in-repo serde shim.
//!
//! Hand-parses the item from raw `proc_macro::TokenTree`s (no `syn` /
//! `quote` available offline) and emits impls of the shim's
//! `serde::Serialize` / `serde::Deserialize` traits. Supports exactly the
//! shapes this workspace derives: non-generic structs (named, tuple,
//! unit) and enums (unit, tuple, struct variants). The JSON layout is
//! real serde's (externally tagged enums by default), and so is the
//! meaning of the attributes it takes: on an enum, `tag = "..."`
//! (internally tagged: a unit or struct variant is one object, its name
//! under that key) and `rename_all = "snake_case"`; on a named field,
//! `skip`, `skip_serializing_if = "path"` and `default` (a no-op: a
//! missing key reads as `null` anyway). Any other `#[serde(...)]` key,
//! or one of these in another place, fails the build.
//!
//! `Serialize` gets `to_value` plus two writers that skip the tree: a
//! streaming `write_json` that prints the same text, and `write_bin`
//! that writes the same `serde::bin` bytes (with `bin_float`, the probe
//! that picks the raw-`f64` array tag). Object keys are sorted here, at
//! expansion time, the way the `BTreeMap` behind `serde::Map` orders
//! them.

use std::collections::BTreeMap;

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    ty: String,
    skip: bool,
    /// The `skip_serializing_if` predicate: a path to a `fn(&T) -> bool`.
    skip_if: Option<String>,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(Vec<String>),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// The name it is written under, `rename_all` applied.
    wire: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        types: Vec<String>,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        /// The key of an internally tagged enum's variant name.
        tag: Option<String>,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ---------------------------------------------------------------- parsing

/// The `key` and `key = "value"` items of `#[serde(...)]` attributes.
type Attrs = BTreeMap<String, Option<String>>;

/// The keys that take a string value; the others are bare flags.
const VALUED: [&str; 3] = ["tag", "rename_all", "skip_serializing_if"];

/// The items of the bracketed attribute body when it is `serde(...)`;
/// any other attribute has none.
fn serde_items(group: &proc_macro::Group) -> Vec<(String, Option<String>)> {
    let mut toks = group.stream().into_iter();
    let args = match (toks.next(), toks.next()) {
        (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args)))
            if name.to_string() == "serde" =>
        {
            args.stream().into_iter().collect::<Vec<_>>()
        }
        _ => return Vec::new(),
    };
    let comma = |t: &TokenTree| matches!(t, TokenTree::Punct(p) if p.as_char() == ',');
    let items = args.split(comma).filter(|item| !item.is_empty());
    items
        .map(|item| {
            let key = item[0].to_string();
            let value = match item {
                [_] => None,
                [_, TokenTree::Punct(eq), TokenTree::Literal(lit)] if eq.as_char() == '=' => {
                    Some(lit.to_string().trim_matches('"').to_string())
                }
                _ => panic!("unsupported #[serde({key} ...)]"),
            };
            (key, value)
        })
        .collect()
}

/// Consumes leading `#[...]` attributes and returns their `#[serde]`
/// items, refusing any key not in `allowed` here.
fn eat_attrs(
    toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
    allowed: &[&str],
) -> Attrs {
    let mut items = Attrs::new();
    while matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        toks.next();
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                items.extend(serde_items(&g));
            }
            other => panic!("expected [...] after #, got {other:?}"),
        }
    }
    for (key, value) in &items {
        let key = key.as_str();
        assert!(
            allowed.contains(&key),
            "#[serde({key})] is not supported here (allowed: {allowed:?})"
        );
        assert!(
            value.is_some() == VALUED.contains(&key),
            "#[serde({key})]: only {VALUED:?} take a value, and they need one"
        );
    }
    items
}

/// Real serde's `snake_case` renaming of a `CamelCase` variant name.
fn snake_case(name: &str) -> String {
    let underscore = |i: usize, c: char| (i > 0 && c.is_uppercase()).then_some('_');
    (name.char_indices())
        .flat_map(|(i, c)| underscore(i, c).into_iter().chain([c.to_ascii_lowercase()]))
        .collect()
}

/// Consumes `pub` / `pub(...)` if present.
fn eat_vis(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(toks.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        toks.next();
        if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            toks.next();
        }
    }
}

/// Collects a type as source text until a top-level `,` (or the end).
fn eat_type(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    while let Some(t) = toks.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            _ => {}
        }
        let t = toks.next().expect("peeked");
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&t.to_string());
    }
    out
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = eat_attrs(&mut toks, &["skip", "default", "skip_serializing_if"]);
        eat_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected field name, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        let ty = eat_type(&mut toks);
        fields.push(Field {
            name,
            ty,
            skip: attrs.contains_key("skip"),
            skip_if: attrs.get("skip_serializing_if").cloned().flatten(),
        });
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between fields, got {other:?}"),
        }
    }
    fields
}

fn parse_tuple_types(stream: TokenStream) -> Vec<String> {
    let mut toks = stream.into_iter().peekable();
    let mut types = Vec::new();
    loop {
        eat_attrs(&mut toks, &[]);
        eat_vis(&mut toks);
        if toks.peek().is_none() {
            break;
        }
        types.push(eat_type(&mut toks));
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between tuple fields, got {other:?}"),
        }
    }
    types
}

fn parse_variants(stream: TokenStream, snake: bool) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        eat_attrs(&mut toks, &[]);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected variant name, got {other:?}"),
        };
        let shape = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                toks.next();
                VariantShape::Tuple(parse_tuple_types(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                toks.next();
                VariantShape::Named(parse_named_fields(g))
            }
            _ => VariantShape::Unit,
        };
        let wire = if snake {
            snake_case(&name)
        } else {
            name.clone()
        };
        variants.push(Variant { name, wire, shape });
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between variants, got {other:?}"),
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    // Outer attributes and visibility on the item itself.
    let mut attrs = Attrs::new();
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                attrs.extend(eat_attrs(&mut toks, &["tag", "rename_all"]));
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => eat_vis(&mut toks),
            _ => break,
        }
    }
    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }
    match kind.as_str() {
        "struct" if !attrs.is_empty() => panic!("`tag` and `rename_all` apply to an enum only"),
        "struct" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Item::TupleStruct {
                    name,
                    types: parse_tuple_types(g.stream()),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::UnitStruct { name },
            other => panic!("unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let rename = attrs.get("rename_all").cloned().flatten();
                assert!(
                    matches!(rename.as_deref(), None | Some("snake_case")),
                    "only `rename_all = \"snake_case\"` is supported"
                );
                Item::Enum {
                    name,
                    tag: attrs.get("tag").cloned().flatten(),
                    variants: parse_variants(g.stream(), rename.is_some()),
                }
            }
            other => panic!("expected enum body for `{name}`, got {other:?}"),
        },
        other => panic!("cannot derive serde impls for `{other} {name}`"),
    }
}

// ------------------------------------------------------------- generation

/// One key of an object: its name, the expression borrowing its value,
/// and the `skip_serializing_if` predicate that leaves it out.
struct Entry {
    key: String,
    expr: String,
    skip_if: Option<String>,
}

/// The entries of the fields `skip` keeps; `prefix` turns a field name
/// into the borrow of its value.
fn field_entries(fields: &[Field], prefix: &str) -> Vec<Entry> {
    let kept = fields.iter().filter(|f| !f.skip);
    kept.map(|f| Entry {
        key: f.name.clone(),
        expr: format!("{prefix}{}", f.name),
        skip_if: f.skip_if.clone(),
    })
    .collect()
}

/// `stmts`, run only when the entry's predicate keeps it.
fn guarded(e: &Entry, stmts: String) -> String {
    match &e.skip_if {
        Some(path) => format!("if !{path}({}) {{\n{stmts}}}\n", e.expr),
        None => stmts,
    }
}

/// Statements building the `serde::Map` named `var` of the entries.
fn object_tree(var: &str, entries: &[Entry]) -> String {
    let mut body = format!("let mut {var} = serde::Map::new();\n");
    for e in entries {
        let (key, expr) = (&e.key, &e.expr);
        let insert =
            format!("{var}.insert(\"{key}\".to_string(), serde::Serialize::to_value({expr}));\n");
        body.push_str(&guarded(e, insert));
    }
    body
}

/// Statements streaming `{"k":v,...}` for the entries, keys sorted.
fn object_json(entries: &[Entry]) -> String {
    let mut body = String::from("out.push('{');\n");
    // Whether an earlier key is surely printed; behind skippable keys
    // only, the comma is decided at run time.
    let mut printed = false;
    let mut sorted: Vec<&Entry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    for (i, e) in sorted.into_iter().enumerate() {
        let check = if printed || i == 0 {
            ""
        } else {
            "if !out.ends_with('{') {\nout.push(',');\n}\n"
        };
        let (comma, key, expr) = (if printed { "," } else { "" }, &e.key, &e.expr);
        let write = format!(
            "{check}out.push_str(\"{comma}\\\"{key}\\\":\");\n\
             serde::Serialize::write_json({expr}, out);\n"
        );
        body.push_str(&guarded(e, write));
        printed |= e.skip_if.is_none();
    }
    body.push_str("out.push('}');\n");
    body
}

/// Statements streaming `[a,b,...]` for the given borrow expressions.
fn array_json(exprs: &[String]) -> String {
    let mut body = String::from("out.push('[');\n");
    for (i, expr) in exprs.iter().enumerate() {
        if i > 0 {
            body.push_str("out.push(',');\n");
        }
        body.push_str(&format!("serde::Serialize::write_json({expr}, out);\n"));
    }
    body.push_str("out.push(']');\n");
    body
}

/// Statements writing the `serde::bin` object of the entries, keys
/// sorted.
fn object_bin(entries: &[Entry]) -> String {
    let mut sorted: Vec<&Entry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut count = sorted.len().to_string();
    for e in &sorted {
        if let Some(path) = &e.skip_if {
            count.push_str(&format!(" - usize::from({path}({}))", e.expr));
        }
    }
    let mut body = format!("serde::bin::put_object(out, {count});\n");
    for e in sorted {
        let (key, expr) = (&e.key, &e.expr);
        let put = format!(
            "serde::bin::put_str(out, \"{key}\");\nserde::Serialize::write_bin({expr}, out);\n"
        );
        body.push_str(&guarded(e, put));
    }
    body
}

/// A statement writing the given borrow expressions as a `serde::bin`
/// array, raw `f64` words when every one is a float.
fn array_bin(exprs: &[String]) -> String {
    let elems: Vec<String> = exprs
        .iter()
        .map(|e| format!("{e} as &dyn serde::Serialize"))
        .collect();
    format!(
        "serde::bin::write_seq::<&dyn serde::Serialize>(out, &[{}]);\n",
        elems.join(", ")
    )
}

/// Statements writing the one-key object `{"variant": payload}`.
fn variant_bin(variant: &str, payload: &str) -> String {
    format!(
        "serde::bin::put_object(out, 1);\n\
         serde::bin::put_str(out, \"{variant}\");\n{payload}"
    )
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let entries = field_entries(fields, "&self.");
            impl_serialize(
                name,
                &format!("{}serde::Value::Object(m)", object_tree("m", &entries)),
                &object_json(&entries),
                &object_bin(&entries),
                NOT_FLOAT,
            )
        }
        Item::TupleStruct { name, types } => match types.len() {
            0 => impl_null(name),
            // A newtype is its field, float probe included.
            1 => impl_serialize(
                name,
                "serde::Serialize::to_value(&self.0)",
                "serde::Serialize::write_json(&self.0, out);",
                "serde::Serialize::write_bin(&self.0, out);",
                "serde::Serialize::bin_float(&self.0)",
            ),
            n => {
                let elems: Vec<String> = (0..n)
                    .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                    .collect();
                let exprs: Vec<String> = (0..n).map(|i| format!("&self.{i}")).collect();
                impl_serialize(
                    name,
                    &format!("serde::Value::Array(vec![{}])", elems.join(", ")),
                    &array_json(&exprs),
                    &array_bin(&exprs),
                    NOT_FLOAT,
                )
            }
        },
        Item::UnitStruct { name } => impl_null(name),
        Item::Enum {
            name,
            tag,
            variants,
        } => {
            let mut arms = String::new();
            let mut json_arms = String::new();
            let mut bin_arms = String::new();
            for v in variants {
                let (vn, wire) = (&v.name, &v.wire);
                let (pattern, tree, json, bin) = match (&v.shape, tag) {
                    (VariantShape::Tuple(_), Some(_)) => {
                        panic!("internally tagged `{name}` cannot have tuple variant `{vn}`")
                    }
                    // `{"<tag>": "<wire>", fields...}`, one flat object.
                    (shape, Some(tag)) => {
                        let (pattern, mut entries) = match shape {
                            VariantShape::Named(fields) => {
                                (named_pattern(name, vn, fields), field_entries(fields, ""))
                            }
                            _ => (format!("{name}::{vn}"), Vec::new()),
                        };
                        assert!(
                            entries.iter().all(|e| e.key != *tag),
                            "`{name}::{vn}` has a field named like its tag `{tag}`"
                        );
                        entries.push(Entry {
                            key: tag.clone(),
                            expr: format!("\"{wire}\""),
                            skip_if: None,
                        });
                        (
                            pattern,
                            format!("{}serde::Value::Object(m)", object_tree("m", &entries)),
                            object_json(&entries),
                            object_bin(&entries),
                        )
                    }
                    (VariantShape::Unit, None) => (
                        format!("{name}::{vn}"),
                        format!("serde::Value::String(\"{wire}\".to_string())"),
                        format!("out.push_str(\"\\\"{wire}\\\"\");"),
                        format!("serde::Serialize::write_bin(\"{wire}\", out);"),
                    ),
                    (VariantShape::Tuple(types), None) => {
                        let binds: Vec<String> =
                            (0..types.len()).map(|i| format!("f{i}")).collect();
                        let (payload, payload_json, payload_bin) = if types.len() == 1 {
                            (
                                "serde::Serialize::to_value(f0)".to_string(),
                                "serde::Serialize::write_json(f0, out);\n".to_string(),
                                "serde::Serialize::write_bin(f0, out);\n".to_string(),
                            )
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            (
                                format!("serde::Value::Array(vec![{}])", elems.join(", ")),
                                array_json(&binds),
                                array_bin(&binds),
                            )
                        };
                        (
                            format!("{name}::{vn}({})", binds.join(", ")),
                            format!(
                                "let mut m = serde::Map::new();\n\
                                 m.insert(\"{wire}\".to_string(), {payload});\n\
                                 serde::Value::Object(m)"
                            ),
                            format!(
                                "out.push_str(\"{{\\\"{wire}\\\":\");\n\
                                 {payload_json}out.push('}}');"
                            ),
                            variant_bin(wire, &payload_bin),
                        )
                    }
                    (VariantShape::Named(fields), None) => {
                        let entries = field_entries(fields, "");
                        (
                            named_pattern(name, vn, fields),
                            format!(
                                "{}let mut m = serde::Map::new();\n\
                                 m.insert(\"{wire}\".to_string(), serde::Value::Object(inner));\n\
                                 serde::Value::Object(m)",
                                object_tree("inner", &entries)
                            ),
                            format!(
                                "out.push_str(\"{{\\\"{wire}\\\":\");\n{}out.push('}}');",
                                object_json(&entries)
                            ),
                            variant_bin(wire, &object_bin(&entries)),
                        )
                    }
                };
                arms.push_str(&format!("{pattern} => {{\n{tree}\n}}\n"));
                json_arms.push_str(&format!("{pattern} => {{\n{json}\n}}\n"));
                bin_arms.push_str(&format!("{pattern} => {{\n{bin}\n}}\n"));
            }
            impl_serialize(
                name,
                &format!("match self {{\n{arms}\n}}"),
                &format!("match self {{\n{json_arms}\n}}"),
                &format!("match self {{\n{bin_arms}\n}}"),
                NOT_FLOAT,
            )
        }
    }
}

/// The pattern binding a struct variant's kept fields by reference.
fn named_pattern(name: &str, vn: &str, fields: &[Field]) -> String {
    let kept: String = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| format!("{}, ", f.name))
        .collect();
    format!("{name}::{vn} {{ {kept}.. }}")
}

/// The `bin_float` body of a type that never serializes to a float.
const NOT_FLOAT: &str = "::std::option::Option::None";

/// `Serialize` for a type that is `null` on every path.
fn impl_null(name: &str) -> String {
    impl_serialize(
        name,
        "serde::Value::Null",
        "out.push_str(\"null\");",
        "out.push(serde::bin::NULL);",
        NOT_FLOAT,
    )
}

fn impl_serialize(name: &str, body: &str, json: &str, bin: &str, float: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl serde::Serialize for {name} {{\n\
         fn to_value(&self) -> serde::Value {{\n{body}\n}}\n\
         fn write_json(&self, out: &mut ::std::string::String) {{\n{json}\n}}\n\
         fn write_bin(&self, out: &mut ::std::vec::Vec<u8>) {{\n{bin}\n}}\n\
         fn bin_float(&self) -> ::std::option::Option<f64> {{\n{float}\n}}\n}}\n"
    )
}

/// Field initialisers reading the named fields out of the `serde::Map`
/// named `map`; `ctx` prefixes the errors.
fn field_inits(fields: &[Field], map: &str, ctx: &str) -> String {
    let init = |f: &Field| match f.skip {
        true => format!("{}: ::std::default::Default::default(),\n", f.name),
        false => format!(
            "{0}: <{1} as serde::Deserialize>::from_value(\
             {map}.get(\"{0}\").unwrap_or(&serde::Value::Null))\
             .map_err(|e| serde::Error::custom(format!(\"{ctx}.{0}: {{e}}\")))?,\n",
            f.name, f.ty
        ),
    };
    fields.iter().map(init).collect()
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let body = format!(
                "let obj = v.as_object().ok_or_else(|| \
                 serde::Error::custom(\"expected object for `{name}`\"))?;\n\
                 Ok({name} {{\n{}}})",
                field_inits(fields, "obj", name)
            );
            impl_deserialize(name, &body)
        }
        Item::TupleStruct { name, types } => {
            let body = match types.len() {
                0 => format!("Ok({name})"),
                1 => format!(
                    "Ok({name}(<{} as serde::Deserialize>::from_value(v)?))",
                    types[0]
                ),
                _ => tuple_from("v", name, types, "tuple length"),
            };
            impl_deserialize(name, &body)
        }
        Item::UnitStruct { name } => impl_deserialize(name, &format!("Ok({name})")),
        Item::Enum {
            name,
            tag: Some(tag),
            variants,
        } => {
            let mut arms = String::new();
            for v in variants {
                let (vn, wire) = (&v.name, &v.wire);
                let ctx = format!("{name}::{vn}");
                let fields = match &v.shape {
                    VariantShape::Named(fields) => {
                        format!(" {{\n{}}}", field_inits(fields, "obj", &ctx))
                    }
                    _ => String::new(),
                };
                arms.push_str(&format!("\"{wire}\" => Ok({name}::{vn}{fields}),\n"));
            }
            let body = format!(
                "let obj = v.as_object().ok_or_else(|| \
                 serde::Error::custom(\"expected object for `{name}`\"))?;\n\
                 let tag = obj.get(\"{tag}\").and_then(serde::Value::as_str).ok_or_else(|| \
                 serde::Error::custom(\"missing `{tag}` for `{name}`\"))?;\n\
                 match tag {{\n{arms}\
                 other => Err(serde::Error::custom(format!(\"unknown variant `{{other}}` for `{name}`\"))),\n}}"
            );
            impl_deserialize(name, &body)
        }
        Item::Enum {
            name,
            tag: None,
            variants,
        } => {
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in variants {
                let (vn, wire) = (&v.name, &v.wire);
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{wire}\" => Ok({name}::{vn}),\n"));
                        // Also accept {"Variant": null}, the keyed form.
                        keyed_arms.push_str(&format!("\"{wire}\" => Ok({name}::{vn}),\n"));
                    }
                    VariantShape::Tuple(types) => {
                        if types.len() == 1 {
                            keyed_arms.push_str(&format!(
                                "\"{wire}\" => Ok({name}::{vn}(\
                                 <{} as serde::Deserialize>::from_value(payload)?)),\n",
                                types[0]
                            ));
                        } else {
                            let ctor = format!("{name}::{vn}");
                            let read = tuple_from("payload", &ctor, types, "arity");
                            keyed_arms.push_str(&format!("\"{wire}\" => {{\n{read}\n}}\n"));
                        }
                    }
                    VariantShape::Named(fields) => {
                        keyed_arms.push_str(&format!(
                            "\"{wire}\" => {{\n\
                             let inner = payload.as_object().ok_or_else(|| \
                             serde::Error::custom(\"expected object for `{name}::{vn}`\"))?;\n\
                             Ok({name}::{vn} {{\n{}}})\n}}\n",
                            field_inits(fields, "inner", &format!("{name}::{vn}"))
                        ));
                    }
                }
            }
            let body = format!(
                "match v {{\n\
                 serde::Value::String(s) => match s.as_str() {{\n{unit_arms}\
                 other => Err(serde::Error::custom(format!(\"unknown variant `{{other}}` for `{name}`\"))),\n}},\n\
                 serde::Value::Object(m) if m.len() == 1 => {{\n\
                 let (tag, payload) = m.iter().next().expect(\"len checked\");\n\
                 match tag.as_str() {{\n{keyed_arms}\
                 other => Err(serde::Error::custom(format!(\"unknown variant `{{other}}` for `{name}`\"))),\n}}\n}},\n\
                 _ => Err(serde::Error::custom(\"expected variant tag for `{name}`\")),\n}}"
            );
            impl_deserialize(name, &body)
        }
    }
}

/// A block reading the array `src` into `ctor(...)` of `types`; `what`
/// names a length mismatch.
fn tuple_from(src: &str, ctor: &str, types: &[String], what: &str) -> String {
    let elems: String = (types.iter().enumerate())
        .map(|(i, ty)| format!("<{ty} as serde::Deserialize>::from_value(&arr[{i}])?,\n"))
        .collect();
    format!(
        "let arr = {src}.as_array().ok_or_else(|| \
         serde::Error::custom(\"expected array for `{ctor}`\"))?;\n\
         if arr.len() != {n} {{\n\
         return Err(serde::Error::custom(\"wrong {what} for `{ctor}`\"));\n}}\n\
         Ok({ctor}(\n{elems}))",
        n = types.len()
    )
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl serde::Deserialize for {name} {{\n\
         fn from_value(v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
