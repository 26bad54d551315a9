(* The element type is fixed to [int], so the compiler knows the backing
   array is neither a float array nor a store of heap pointers: reads are
   plain loads and writes need no [caml_modify]. *)
type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Ivec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Ivec.set";
  Array.unsafe_set v.data i x

let grow v =
  let n = Array.length v.data in
  let data = Array.make (2 * n) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Ivec.pop";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let clear v = v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Ivec.shrink";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let sub v pos len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Ivec.sub";
  Array.sub v.data pos len

let to_array v = Array.sub v.data 0 v.len
let copy v = { data = Array.sub v.data 0 (max v.len 1); len = v.len }
