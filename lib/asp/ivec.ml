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

let lower_bound v x =
  let l = ref 0 and r = ref v.len in
  while !l < !r do
    let m = (!l + !r) lsr 1 in
    if Array.unsafe_get v.data m < x then l := m + 1 else r := m
  done;
  !l

(* Insertion sort for the short vectors of a rule body; [Array.sort] on a
   copy beyond that. *)
let sort_uniq v =
  let n = v.len in
  if n > 16 then begin
    let a = Array.sub v.data 0 n in
    Array.sort Int.compare a;
    Array.blit a 0 v.data 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = Array.unsafe_get v.data i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get v.data !j > x do
        Array.unsafe_set v.data (!j + 1) (Array.unsafe_get v.data !j);
        decr j
      done;
      Array.unsafe_set v.data (!j + 1) x
    done;
  let distinct = ref (min n 1) in
  for i = 1 to n - 1 do
    if Array.unsafe_get v.data i <> Array.unsafe_get v.data (!distinct - 1) then begin
      Array.unsafe_set v.data !distinct (Array.unsafe_get v.data i);
      incr distinct
    end
  done;
  v.len <- !distinct;
  Array.sub v.data 0 !distinct
