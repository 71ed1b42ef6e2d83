(* Management-channel frames, carried directly in Ethernet frames with a
   dedicated ethertype (CONMan §III-A: "management frames encapsulated in
   Ethernet frames ... no pre-configuration is needed"). *)

open Packet

type t = {
  src_device : string;
  dst_device : string; (* "" = flood to every management agent *)
  seq : int; (* per-source sequence number, used for flood suppression *)
  payload : bytes;
}

exception Bad_frame of string

let broadcast = ""

let write_string w s =
  if String.length s > 0xffff then invalid_arg "Frame.write_string";
  Cursor.w16 w (String.length s);
  Cursor.wbytes w (Bytes.of_string s)

let read_string r =
  let n = Cursor.u16 r in
  Bytes.to_string (Cursor.take r n)

(* A fragment is an ordinary frame followed by a 4-byte trailer
   (index, count); a whole frame has no trailer. *)
type fragment = { index : int; count : int }

let write t =
  let w = Cursor.writer () in
  write_string w t.src_device;
  write_string w t.dst_device;
  Cursor.w32 w (Int32.of_int t.seq);
  Cursor.w16 w (Bytes.length t.payload);
  Cursor.wbytes w t.payload;
  w

let encode t = Cursor.contents (write t)

let encode_fragment t { index; count } =
  let w = write t in
  Cursor.w16 w index;
  Cursor.w16 w count;
  Cursor.contents w

let decode_fragment buf =
  try
    let r = Cursor.reader buf in
    let src_device = read_string r in
    let dst_device = read_string r in
    let seq = Int32.to_int (Cursor.u32 r) in
    let len = Cursor.u16 r in
    let payload = Cursor.take r len in
    let frag =
      match Cursor.remaining r with
      | 0 -> None
      | 4 ->
          let index = Cursor.u16 r in
          let count = Cursor.u16 r in
          if index >= count then raise (Bad_frame "fragment index out of range");
          Some { index; count }
      | _ -> raise (Bad_frame "trailing bytes")
    in
    ({ src_device; dst_device; seq; payload }, frag)
  with
  | Cursor.Truncated -> raise (Bad_frame "truncated")
  (* decode is total up to Bad_frame: fuzzed or corrupted buffers must
     never leak any other exception to the channel layer *)
  | Bad_frame _ as e -> raise e
  | _ -> raise (Bad_frame "malformed")

let decode buf = fst (decode_fragment buf)

let equal a b =
  a.src_device = b.src_device && a.dst_device = b.dst_device && a.seq = b.seq
  && Bytes.equal a.payload b.payload

let pp ppf t =
  Fmt.pf ppf "mgmt %s -> %s #%d (%d bytes)" t.src_device
    (if t.dst_device = "" then "*" else t.dst_device)
    t.seq (Bytes.length t.payload)
