let reset_all () = ()
