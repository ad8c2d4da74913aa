module Obs = Genalg_obs.Obs

let c_page_allocs = Obs.counter "storage.heap.page_allocs"
let c_inserts = Obs.counter "storage.heap.inserts"
let c_deletes = Obs.counter "storage.heap.deletes"

type rid = { page : int; slot : int }

(* A page holds at most [page_size / slot_bytes] slot-directory entries,
   so that many slot numbers fit below the page bits. *)
let slot_bits =
  let max_slots = Page.page_size / Page.slot_bytes in
  let rec bits b = if 1 lsl b >= max_slots then b else bits (b + 1) in
  bits 0

let slot_mask = (1 lsl slot_bits) - 1

let rid_to_int r =
  if r.page < 0 || r.page > max_int lsr slot_bits || r.slot < 0 || r.slot > slot_mask
  then invalid_arg "Heap.rid_to_int: rid out of range";
  (r.page lsl slot_bits) lor r.slot

let rid_of_int i = { page = i lsr slot_bits; slot = i land slot_mask }

(* Pages live behind the buffer pool: serialized images are the "disk"
   tier, decoded frames a bounded LRU in front of it. The public API is
   unchanged — callers still see an append-friendly bag of records. *)
type t = { pool : Buffer_pool.t; mutable live : int }

let create () = { pool = Buffer_pool.create (); live = 0 }

let add_page t =
  Obs.add c_page_allocs 1;
  Buffer_pool.add_page t.pool

let insert t record =
  Obs.add c_inserts 1;
  (* try the last page first; heap loads are append-dominated *)
  let try_page i =
    match Buffer_pool.with_page_mut t.pool i (fun p -> Page.insert p record) with
    | Some slot -> Some { page = i; slot }
    | None -> None
  in
  let npages = Buffer_pool.page_count t.pool in
  let rid =
    if npages = 0 then None
    else
      match try_page (npages - 1) with
      | Some _ as r -> r
      | None -> if npages >= 2 then try_page (npages - 2) else None
  in
  match rid with
  | Some r ->
      t.live <- t.live + 1;
      r
  | None -> (
      let i = add_page t in
      match Buffer_pool.with_page_mut t.pool i (fun p -> Page.insert p record) with
      | Some slot ->
          t.live <- t.live + 1;
          { page = i; slot }
      | None -> invalid_arg "Heap.insert: record exceeds page capacity")

let get t rid =
  if rid.page < 0 || rid.page >= Buffer_pool.page_count t.pool then None
  else Buffer_pool.with_page t.pool rid.page (fun p -> Page.get p rid.slot)

let delete t rid =
  if rid.page < 0 || rid.page >= Buffer_pool.page_count t.pool then false
  else begin
    let ok = Buffer_pool.with_page_mut t.pool rid.page (fun p -> Page.delete p rid.slot) in
    if ok then begin
      Obs.add c_deletes 1;
      t.live <- t.live - 1
    end;
    ok
  end

let update t rid record =
  if
    rid.page >= 0
    && rid.page < Buffer_pool.page_count t.pool
    && Buffer_pool.with_page_mut t.pool rid.page (fun p -> Page.update p rid.slot record)
  then rid
  else begin
    ignore (delete t rid);
    insert t record
  end

let iter f t =
  for i = 0 to Buffer_pool.page_count t.pool - 1 do
    Buffer_pool.with_page t.pool i
      (Page.iter (fun slot record -> f { page = i; slot } record))
  done

let fold f t init =
  let acc = ref init in
  iter (fun rid record -> acc := f rid record !acc) t;
  !acc

let record_count t = t.live
let page_count t = Buffer_pool.page_count t.pool
let flush t = Buffer_pool.flush t.pool
let drop_page_cache t = Buffer_pool.drop_frames t.pool

let to_bytes t =
  Buffer_pool.flush t.pool;
  let npages = Buffer_pool.page_count t.pool in
  let buf = Buffer.create (npages * Page.page_size) in
  Buffer.add_int64_le buf (Int64.of_int npages);
  Buffer.add_int64_le buf (Int64.of_int t.live);
  for i = 0 to npages - 1 do
    Buffer.add_bytes buf (Buffer_pool.page_image t.pool i)
  done;
  Buffer.to_bytes buf

let of_bytes data =
  if Bytes.length data < 16 then Error "Heap.of_bytes: truncated header"
  else begin
    let npages = Int64.to_int (Bytes.get_int64_le data 0) in
    let live = Int64.to_int (Bytes.get_int64_le data 8) in
    if npages < 0 || Bytes.length data <> 16 + (npages * Page.page_size) then
      Error "Heap.of_bytes: size mismatch"
    else begin
      let pool = Buffer_pool.create () in
      (* Validate every image eagerly (decode errors must surface here,
         not on first access), but install only the images: a reloaded
         heap starts with a cold frame cache. *)
      let rec load i =
        if i = npages then Ok ()
        else
          let chunk = Bytes.sub data (16 + (i * Page.page_size)) Page.page_size in
          match Page.of_bytes chunk with
          | Ok _ ->
              Buffer_pool.install_page_image pool chunk;
              load (i + 1)
          | Error _ as e -> e
      in
      match load 0 with
      | Ok () -> Ok { pool; live }
      | Error msg -> Error msg
    end
  end
