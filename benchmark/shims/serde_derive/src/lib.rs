//! No-op `Serialize`/`Deserialize` derives. seqnet derives the traits on
//! its id types but never serialises through them (every codec in the
//! repo is hand-rolled), so expanding to nothing keeps the program's
//! behaviour and removes the need for `syn`/`quote` offline.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
