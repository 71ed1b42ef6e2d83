(** Management-channel frames, carried directly in Ethernet frames with a
    dedicated ethertype (§III-A: raw frames, no pre-configuration). *)

type t = {
  src_device : string;
  dst_device : string; (** {!broadcast} floods to every agent *)
  seq : int; (** per-source sequence number, for flood suppression *)
  payload : bytes;
}

exception Bad_frame of string

val broadcast : string
val encode : t -> bytes
val decode : bytes -> t
val equal : t -> t -> bool
val pp : t Fmt.t

(** {2 Fragments}

    A message too large for one link frame travels as [count] frames, each
    carrying one slice of it and its own per-source [seq]. The fragment
    header rides as a trailer after the payload, so an unfragmented frame
    is encoded exactly as by {!encode}. *)

type fragment = { index : int; count : int }

val encode_fragment : t -> fragment -> bytes

val decode_fragment : bytes -> t * fragment option
(** Like {!decode}, also returning the fragment trailer if the frame has
    one. Raises [Bad_frame] on a malformed trailer. *)
