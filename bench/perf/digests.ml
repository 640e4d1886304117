(* MD5 of round 0's records (Marshal, No_sharing) per workload, for the
   default and the held-out seed, as [perf.exe digest] prints them from the
   sequential loop. A run with one of these seeds must reproduce its digest
   exactly, whatever path its workload takes; the two code workloads share
   one plan and so one digest. *)

let committed =
  [
    ("p4-suite", 0x2004L, false, "7781786230c4eee0c65e2b4ee7d80779");
    ("g4-suite", 0x2004L, false, "83269775baccb8fbd67e148123bd7ccc");
    ("p4-code-jobs2", 0x2004L, false, "24c0f695eec2d47ca88e123364e7a30e");
    ("p4-code-fleet2", 0x2004L, false, "24c0f695eec2d47ca88e123364e7a30e");
    ("g4-data-persist", 0x2004L, false, "85283be72eb192b1ea8946a396d85b00");
    ("p4-suite", 0x1729L, false, "d558db9d053bbe204d7640999b407867");
    ("g4-suite", 0x1729L, false, "5303187bfa089b4031363b718f7cd804");
    ("p4-code-jobs2", 0x1729L, false, "9e6d9eb609d4905d56671f0fdf79059f");
    ("p4-code-fleet2", 0x1729L, false, "9e6d9eb609d4905d56671f0fdf79059f");
    ("g4-data-persist", 0x1729L, false, "7e5d1f982548e6d5ca6e8d677cf94ca6");
    ("p4-suite", 0x2004L, true, "dd27b9007aeb7533d36bc309108e13ea");
    ("g4-suite", 0x2004L, true, "dff1a583651618f8cc07bb59f1e4be65");
    ("p4-code-jobs2", 0x2004L, true, "076b61a0f2a8dcd9645297987a3e699a");
    ("p4-code-fleet2", 0x2004L, true, "076b61a0f2a8dcd9645297987a3e699a");
    ("g4-data-persist", 0x2004L, true, "2c7673aac37888b2bf31e5a8ca3bebdc");
  ]

let find ~workload ~seed ~quick =
  List.find_map
    (fun (w, s, q, d) -> if w = workload && s = seed && q = quick then Some d else None)
    committed
