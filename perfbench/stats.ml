let median = function
  | [] -> invalid_arg "Stats.median: empty sample"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rank n per10k = ((per10k * n) + 9999) / 10000

let nearest_rank sorted ~per10k =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (rank n per10k - 1)))

type tail = { n : int; p50 : float; tail_pct : float; tail : float }

let tail samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { n; p50 = 0.; tail_pct = 0.; tail = 0. }
  else
    let per10k =
      List.find_opt
        (fun q -> n - rank n q >= 10)
        [ 9999; 9990; 9900; 9000 ]
      |> Option.value ~default:5000
    in
    {
      n;
      p50 = nearest_rank a ~per10k:5000;
      tail_pct = float per10k /. 100.;
      tail = nearest_rank a ~per10k;
    }
