# hand-written: late and repeated vertex records, label lists with
# duplicates and gaps, parallel edges, isolated vertices, tabs, CRLF
e 0 1 knows
e 1 0 knows,likes
e 2	5   cites,cites,,funds
v 0 person
v 1 person,author

v 5 paper
v 2 paper,preprint
v 2 paper
e 5 2
e +3 007 likes
v 9
v 4 ,
e 8 4 funds extra tokens
