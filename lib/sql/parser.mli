(** Recursive-descent parser for the SQL subset.

    Grammar (keywords case-insensitive):
    {v
    query    ::= SELECT [DISTINCT] items FROM tables
                 [WHERE pred (AND pred)*]
                 [GROUP BY attrs] [ORDER BY ord (',' ord)*]
    items    ::= item (',' item)*
    item     ::= attr | agg '(' (attr | '*') ')'
    agg      ::= COUNT | SUM | AVG | MIN | MAX
    tables   ::= table (',' table)*
    table    ::= ident [ident]          (relation with optional alias)
    pred     ::= scalar cmpop scalar | attr BETWEEN int AND int
    scalar   ::= attr | literal
    attr     ::= ident '.' ident | ident
    ord      ::= attr [ASC | DESC]
    v}

    In a DISTINCT query every ORDER BY key must be a column of the
    SELECT list.

    Unqualified attributes are resolved against the FROM clause when exactly
    one relation is present; otherwise they are an error (autonomous peers
    cannot guess each other's schemas). *)

exception Error of string
(** Parse or resolution failure, with a human-readable message. *)

val parse : string -> Ast.t
(** @raise Error on malformed input, and re-raises {!Lexer.Error} as
    [Error]. *)

val parse_result : string -> (Ast.t, string) result
(** Exception-free wrapper around {!parse}. *)
