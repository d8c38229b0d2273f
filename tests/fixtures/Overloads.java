class Overloads {
    //@ requires x > 0;
    static int f(int x) {
        return x;
    }

    //@ requires y > 1;
    static int f(int x, int y) {
        return x + y;
    }
}
