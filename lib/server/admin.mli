(** Admin stat socket: a tiny request/response plane beside the data path.

    A server {!Group} binds a second UDP socket on its own port and answers
    ["stat"] datagrams with one JSON snapshot datagram. The socket is
    non-blocking and only ever touched from the group's service thread
    ({!poll}), never from a serving loop, so an operator querying a loaded
    server costs one recvfrom and one sendto per query and can never stall
    a flow. The protocol is a
    single datagram each way — no connection, no framing — which is why
    {!query} (the client half used by [lanrepro stat]/[top] and the tests)
    just retries on timeout like any datagram protocol. *)

type t

val create : ?address:string -> port:int -> unit -> t
(** Binds the socket (default address ["127.0.0.1"]). [port = 0] picks an
    ephemeral port — read it back with {!port}. Raises [Unix.Unix_error]
    when the bind fails (port in use). *)

val port : t -> int

val poll : t -> snapshot:(unit -> Obs.Json.t) -> unit
(** Answers every request currently queued on the socket (bounded per call
    so a request flood cannot starve the data path). [snapshot] is invoked
    at most once per poll, and only when a request is actually waiting.
    Replies that would exceed one datagram are replaced by an error
    object. Never raises on socket errors — a dead client's ICMP bounce is
    ignored. *)

val close : t -> unit

val query :
  ?timeout_ms:int ->
  ?retries:int ->
  Unix.sockaddr ->
  (Obs.Json.t, string) result
(** One-shot client: sends ["stat"], waits [timeout_ms] (default 1000) for
    the reply, retrying the whole exchange [retries] times (default 3).
    [Error] carries a human-readable reason (timeout, socket error, or a
    reply that is not valid JSON). *)

val parse_address : string -> (Unix.sockaddr, string) result
(** ["host:port"] (host defaults to 127.0.0.1 when the string is just a
    port number). *)
