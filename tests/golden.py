"""Frozen reference trees: parent arrays transcribed from the drawn examples
(verified against the independent oracles before freezing)."""

# The 16 rooted trees on [4] with one improper edge and deg(1) > 0.
SIXTEEN_DEG1 = {
    (0, 1, 4, 2), (0, 3, 1, 2), (0, 4, 2, 1), (2, 0, 1, 3), (3, 1, 0, 2),
    (4, 1, 2, 0), (0, 3, 1, 1), (0, 4, 1, 1), (0, 1, 4, 1), (3, 1, 0, 3),
    (2, 0, 1, 2), (2, 0, 2, 1), (0, 3, 1, 3), (2, 0, 1, 1), (3, 1, 0, 1),
    (4, 1, 1, 0),
}

# The 16 rooted trees on [4] with two improper edges and deg(4) > 0.
SIXTEEN_DEG4 = {
    (4, 3, 1, 0), (2, 4, 1, 0), (3, 1, 4, 0), (0, 3, 4, 1), (4, 0, 1, 2),
    (4, 1, 0, 3), (0, 4, 1, 3), (2, 0, 4, 1), (3, 4, 0, 1), (4, 1, 4, 0),
    (4, 4, 1, 0), (4, 4, 2, 0), (4, 0, 2, 2), (2, 0, 4, 2), (2, 4, 2, 0),
    (0, 4, 4, 1),
}

# Lowering/lifting pair on [9].
LOWER_PAIR_BEFORE = "2 0 4 2 9 4 2 9 6"
LOWER_PAIR_AFTER = "2 0 4 6 9 9 2 9 2"

# Stem-fold pair on [20] with fold node 11.
FOLD_PAIR_BEFORE = "5 17 8 3 17 7 16 7 0 15 14 16 14 1 9 9 3 12 11 10"
FOLD_PAIR_AFTER = "5 17 8 3 17 7 16 11 11 15 14 16 14 0 9 11 11 12 11 10"

# All-improper tree on [9] and its increasing plane tree.
PLANE_PAIR_TREE = "9 6 7 0 9 4 4 9 6"
PLANE_PAIR_PLANE = "1(5(8(9)) 2(6) 3(7 4))"

# The n = 8 census: (k, lambda) -> the number of rooted trees on [8] with k
# improper edges and lower critical node lambda (None where 8 is a leaf),
# frozen from the per-prefix-core kernel, itself checked against the
# per-tree methods at n = 7.
CENSUS_8 = {
    (0, None): 5040,
    (1, None): 30240, (1, 1): 720, (1, 2): 720, (1, 3): 720, (1, 4): 720, (1, 5): 720,
    (1, 6): 720, (1, 7): 720,
    (2, None): 93492, (2, 1): 6084, (2, 2): 5364, (2, 3): 5004, (2, 4): 4764,
    (2, 5): 4584, (2, 6): 4440, (2, 7): 4320,
    (3, None): 185416, (3, 1): 25424, (3, 2): 19736, (3, 3): 17252, (3, 4): 15756,
    (3, 5): 14724, (3, 6): 13956, (3, 7): 13356,
    (4, None): 242550, (4, 1): 65478, (4, 2): 44934, (4, 3): 37128, (4, 4): 32820,
    (4, 5): 30018, (4, 6): 28014, (4, 7): 26488,
    (5, None): 194040, (5, 1): 107240, (5, 2): 65560, (5, 3): 51800, (5, 4): 44680,
    (5, 5): 40190, (5, 6): 37030, (5, 7): 34650,
    (6, None): 72765, (6, 1): 104055, (6, 2): 57225, (6, 3): 43785, (6, 4): 37065,
    (6, 5): 32865, (6, 6): 29925, (6, 7): 27720,
    (7, 1): 46080, (7, 2): 23040, (7, 3): 17280, (7, 4): 14400, (7, 5): 12600,
    (7, 6): 11340, (7, 7): 10395,
}
