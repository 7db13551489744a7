(** Minimal JSON reader for validating the tree's own artifacts.

    Every serializer in the repo renders JSON by hand; this is the
    matching reader, shared by the Chrome trace validator, the
    [benchdiff] regression harness, and the series report.  It parses
    the full JSON grammar (numbers as floats) but makes no attempt at
    streaming or spans — inputs are whole artifacts, read into memory. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val quote : string -> string
(** [s] as a JSON string literal: quotes, backslash, newline and tab
    escaped, other control bytes as [\u00XX]; every other byte (UTF-8
    included) passes through.  The one string writer behind every JSON
    artifact the tree emits. *)

val parse : string -> t
(** Parse one complete JSON value; trailing non-whitespace is an error,
    and so are a raw control byte (below 0x20) inside a string and a
    [\u] not followed by four hex digits, as in RFC 8259.
    @raise Parse_error with an offset-bearing message on malformed
    input. *)

val parse_opt : string -> t option
(** [parse] with parse errors mapped to [None]. *)

val field : t -> string -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val str : t -> string option
val num : t -> float option
