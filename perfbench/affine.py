"""Independent Coxeter oracle for the benchmark: affine permutations of Z
as windows, written from the textbook definitions and sharing no code
with the library.

An element u of the affine symmetric group of rank n satisfies
u(j + n) = u(j) + n and is stored as (u(1), ..., u(n)).  Generator
i < n swaps positions i and i+1; generator n (the affine node) swaps
positions n and n+1.  Words act by right multiplication, so a word spells
s_{a1} s_{a2} ... s_{ak}.  The finite symmetric group is the subgroup of
words without the affine letter.

Length is Shi's inversion formula (Bjorner-Brenti, Combinatorics of
Coxeter Groups, Prop. 8.3.1):

    l(u) = sum over 1 <= i < j <= n of |floor((u(j) - u(i)) / n)|.
"""


def window(word, n):
    """The window of the element spelled by a word over 1..n."""
    u = list(range(1, n + 1))
    for s in word:
        if not 1 <= s <= n:
            raise ValueError(f"letter {s} outside 1..{n}")
        if s < n:
            u[s - 1], u[s] = u[s], u[s - 1]
        else:
            u[0], u[n - 1] = u[n - 1] - n, u[0] + n
    return tuple(u)


def length(u):
    n = len(u)
    return sum(
        abs((u[j] - u[i]) // n) for i in range(n) for j in range(i + 1, n)
    )


def random_reduced_word(rng, n, target):
    """A reduced word of length `target`, grown one letter at a time by
    keeping only letters that lengthen the element."""
    word = []
    while len(word) < target:
        s = rng.randint(1, n)
        if length(window(word + [s], n)) > len(word):
            word.append(s)
    return tuple(word)


def reduced_words(n, target):
    """One reduced word for each element of length `target`, in a fixed
    order."""
    level = {window((), n): ()}
    for _ in range(target):
        longer = {}
        for word in level.values():
            for s in range(1, n + 1):
                u = window(word + (s,), n)
                if length(u) == len(word) + 1 and u not in longer:
                    longer[u] = word + (s,)
        level = longer
    return list(level.values())


def longest_finite_word(rank):
    """A reduced word for the longest element of the symmetric group
    S_{rank+1}: 1, 2 1, 3 2 1, ..."""
    return tuple(j for i in range(1, rank + 1) for j in range(i, 0, -1))
