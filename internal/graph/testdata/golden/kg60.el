v 0 kw2
v 1 kw3
v 2 kw0
v 3 kw0
v 4 kw0
v 5 kw2
v 6 kw1
v 7 kw1
v 8 kw1
v 9 kw1
v 10 kw2
v 11 kw3
v 12 kw0
v 13 kw0
v 14 kw3
v 15 kw1
v 16 kw1
v 17 kw3
v 18 kw1
v 19 kw1
v 20 kw2
v 21 kw2
v 22 kw2
v 23 kw1
v 24 kw0
v 25 kw2
v 26 kw0
v 27 kw2
v 28 kw2
v 29 kw3
v 30 kw2
v 31 kw0
v 32 kw2
v 33 kw3
v 34 kw1
v 35 kw0
v 36 kw1
v 37 kw3
v 38 kw3
v 39 kw0
v 40 kw3
v 41 kw2
v 42 kw3
v 43 kw3
v 44 kw3
v 45 kw1
v 46 kw0
v 47 kw1
v 48 kw0
v 49 kw3
v 50 kw1
v 51 kw1
v 52 kw1
v 53 kw2
v 54 kw1
v 55 kw1
v 56 kw3
v 57 kw2
v 58 kw3
v 59 kw2
e 0 1 kw0
e 1 2 kw1
e 0 3 kw3
e 1 4 kw1
e 0 5 kw2
e 0 6 kw2
e 0 7 kw2
e 4 8 kw1
e 2 9 kw3
e 1 10 kw3
e 2 11 kw0
e 1 12 kw1
e 12 13 kw1
e 0 14 kw0
e 2 15 kw2
e 1 16 kw1
e 10 17 kw0
e 3 18 kw1
e 1 19 kw1
e 3 20 kw0
e 3 21 kw0
e 8 22 kw2
e 3 23 kw1
e 0 24 kw2
e 0 25 kw2
e 1 26 kw3
e 7 27 kw1
e 5 28 kw1
e 4 29 kw0
e 4 30 kw0
e 4 31 kw0
e 14 32 kw3
e 1 33 kw3
e 3 34 kw3
e 1 35 kw3
e 18 36 kw3
e 0 37 kw3
e 4 38 kw0
e 2 39 kw3
e 4 40 kw3
e 26 41 kw0
e 1 42 kw0
e 39 43 kw0
e 35 44 kw3
e 9 45 kw2
e 1 46 kw3
e 0 47 kw0
e 4 48 kw2
e 0 49 kw1
e 0 50 kw0
e 0 51 kw0
e 1 52 kw1
e 2 53 kw2
e 23 54 kw3
e 1 55 kw0
e 3 56 kw1
e 0 57 kw3
e 35 58 kw1
e 0 59 kw1
e 4 17 kw3
e 17 42 kw1
e 15 45 kw1
e 3 24 kw3
e 49 56 kw0
e 23 38 kw1
e 33 37 kw1
e 19 57 kw1
e 7 58 kw2
e 5 52 kw3
e 56 57 kw3
e 35 46 kw1
e 3 6 kw3
e 16 46 kw3
e 19 20 kw1
e 39 42 kw1
e 54 59 kw1
e 6 13 kw2
e 1 22 kw2
e 30 44 kw3
e 31 53 kw2
e 12 52 kw0
e 10 53 kw0
e 28 53 kw2
e 29 49 kw2
e 7 40 kw2
e 40 52 kw3
e 10 14 kw0
e 33 37 kw3
e 16 31 kw1
e 22 52 kw3
e 18 42 kw1
e 15 50 kw1
e 29 51 kw0
e 6 53 kw3
e 16 21 kw0
e 6 54 kw2
e 39 43 kw3
e 18 52 kw1
e 5 7 kw1
e 33 41 kw2
e 21 42 kw2
e 44 53 kw0
e 39 45 kw2
e 33 41 kw1
e 9 50 kw2
e 20 43 kw3
e 22 29 kw3
e 23 38 kw1
e 29 58 kw1
e 8 49 kw3
e 10 36 kw1
e 10 28 kw2
e 12 53 kw3
e 7 51 kw1
e 2 44 kw0
e 20 39 kw0
e 11 29 kw3
e 17 55 kw2
e 50 54 kw0
e 13 51 kw1
e 20 58 kw3
e 46 51 kw0
e 8 10 kw1
e 15 35 kw0
e 11 23 kw1
e 23 52 kw0
e 8 45 kw3
e 25 54 kw2
e 48 52 kw0
e 24 28 kw2
e 11 39 kw3
e 32 36 kw2
e 22 35 kw0
e 8 56 kw3
e 2 23 kw0
e 48 52 kw3
e 4 24 kw1
e 24 53 kw3
e 10 42 kw0
e 36 37 kw0
e 20 22 kw0
e 13 59 kw1
e 27 33 kw3
e 3 17 kw1
e 31 58 kw0
e 18 57 kw0
e 24 34 kw2
e 18 43 kw0
e 0 2 kw1
e 30 46 kw2
